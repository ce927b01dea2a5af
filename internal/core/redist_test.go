package core

import (
	"bytes"
	"encoding/json"
	"testing"

	"dsmdist/internal/machine"
	"dsmdist/internal/obs"
	"dsmdist/internal/ospage"
	"dsmdist/internal/workloads"
)

func TestBackToBackDynamicLoops(t *testing.T) {
	// Two sequential schedtype(dynamic) regions share rt.DynCursor; if
	// ResetDynamic did not run between them, the second loop would see
	// the cursor already at 100 and execute nothing.
	img := build(t, `
      program p
      real*8 a(100), b(100)
      integer i
c$doacross local(i) shared(a) schedtype(dynamic)
      do i = 1, 100
        a(i) = dble(i)
      end do
c$doacross local(i) shared(a, b) schedtype(dynamic)
      do i = 1, 100
        b(i) = a(i) * 3.0
      end do
      end
`)
	res := run(t, img, 4, ospage.FirstTouch)
	b := arr(t, res, "p", "b")
	for i := 0; i < 100; i++ {
		if b[i] != float64(i+1)*3 {
			t.Fatalf("b[%d] = %v, want %v (stale dynamic cursor?)", i, b[i], float64(i+1)*3)
		}
	}
}

func TestRedistPagesMatchMigrated(t *testing.T) {
	// After a cyclic(k) -> block redistribute the runtime's RedistPages
	// counter and the OS page manager's Migrated stat describe the same
	// motion and must agree exactly.
	img := build(t, `
      program p
      integer n
      parameter (n = 64)
      real*8 a(n, n)
c$distribute a(cyclic(8), *)
      integer i, j
      do j = 1, n
        do i = 1, n
          a(i, j) = dble(i + j)
        end do
      end do
c$redistribute a(block, *)
      a(1, 1) = a(1, 1) + 1.0
      end
`)
	res := run(t, img, 4, ospage.FirstTouch)
	if res.RT.RedistPages == 0 {
		t.Fatal("cyclic(8)->block redistribute moved no pages")
	}
	if res.RT.RedistPages != res.Pages.Migrated {
		t.Fatalf("RedistPages = %d, ospage Migrated = %d",
			res.RT.RedistPages, res.Pages.Migrated)
	}
	a := arr(t, res, "p", "a")
	if a[0] != 3.0 { // a(1,1) = 1+1, then +1
		t.Fatalf("a(1,1) = %v after redistribute, want 3", a[0])
	}
}

func TestRedistObsAttribution(t *testing.T) {
	// c$redistribute cycles must land in the recorder's redist category,
	// not be misread as compute, and the trace must carry redist spans.
	img := build(t, `
      program p
      integer n
      parameter (n = 64)
      real*8 a(n, n)
c$distribute a(*, block)
      integer i, j
      do j = 1, n
        do i = 1, n
          a(i, j) = 1.0
        end do
      end do
c$redistribute a(block, *)
      a(1, 1) = 2.0
      end
`)
	cfg := machine.Scaled(4)
	rec := obs.NewRecorder(cfg)
	rec.EnableTrace(0)
	if _, err := Run(img, cfg, RunOptions{Policy: ospage.FirstTouch, Rec: rec}); err != nil {
		t.Fatal(err)
	}

	ser := rec.Region(obs.SerialRegion)
	if ser == nil || ser.RedistCyc == 0 {
		t.Fatal("redistribute cycles not attributed to the serial region's redist category")
	}
	if got := rec.RedistCycles(); got != ser.RedistCyc {
		t.Fatalf("RedistCycles() = %d, serial region RedistCyc = %d", got, ser.RedistCyc)
	}
	// The breakdown must stay consistent: compute excludes the redist
	// share rather than absorbing it.
	if ser.ComputeCyc()+ser.RedistCyc > ser.Cycles {
		t.Fatalf("compute %d + redist %d exceeds region cycles %d",
			ser.ComputeCyc(), ser.RedistCyc, ser.Cycles)
	}

	var buf bytes.Buffer
	if err := rec.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var tf struct {
		TraceEvents []struct {
			Cat string `json:"cat"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &tf); err != nil {
		t.Fatal(err)
	}
	redistEvents := 0
	for _, ev := range tf.TraceEvents {
		if ev.Cat == "redist" {
			redistEvents++
		}
	}
	if redistEvents == 0 {
		t.Fatal("trace contains no redist-category events")
	}
}

func TestScheduledRedistributeBeatsSerial(t *testing.T) {
	// Acceptance: the scheduled collective's modeled redistribute cycles
	// drop versus the serial model and vary with P rather than staying
	// flat. Compared at P >= 4 on the scaled machine — below one full
	// node there is no inter-node motion and both models are ~free.
	src := workloads.Redistribute(64, 2, "(*, block)", "(block, *)")
	sched := map[int]int64{}
	serial := map[int]int64{}
	for _, p := range []int{4, 16} {
		for _, mode := range []bool{false, true} {
			img := build(t, src)
			cfg := machine.Scaled(p)
			rec := obs.NewRecorder(cfg)
			_, err := Run(img, cfg, RunOptions{
				Policy: ospage.FirstTouch, Rec: rec, RedistSerial: mode})
			if err != nil {
				t.Fatal(err)
			}
			if mode {
				serial[p] = rec.RedistCycles()
			} else {
				sched[p] = rec.RedistCycles()
			}
		}
	}
	for _, p := range []int{4, 16} {
		if sched[p] == 0 || serial[p] == 0 {
			t.Fatalf("P=%d: no redistribute cycles recorded (sched %d, serial %d)",
				p, sched[p], serial[p])
		}
		if sched[p] >= serial[p] {
			t.Fatalf("P=%d: scheduled %d cycles not below serial %d",
				p, sched[p], serial[p])
		}
	}
	if sched[4] == sched[16] {
		t.Fatalf("scheduled cost flat in P: %d cycles at both P=4 and P=16", sched[4])
	}
	// The advantage should grow with the machine: the serial walk gets
	// relatively worse as more nodes hold pages.
	if serial[16]*sched[4] <= serial[4]*sched[16] {
		t.Fatalf("speedup does not scale with P: serial/sched = %d/%d at P=4, %d/%d at P=16",
			serial[4], sched[4], serial[16], sched[16])
	}
}

func TestRedistModeIdenticalWithoutRedistribute(t *testing.T) {
	// A program with no c$redistribute must be cycle-bit-identical under
	// both cost models: RedistSerial may only affect redistributes.
	src := `
      program p
      integer n
      parameter (n = 64)
      real*8 a(n, n)
c$distribute a(*, block)
      integer i, j
c$doacross local(i, j) shared(a)
      do j = 1, n
        do i = 1, n
          a(i, j) = dble(i) + dble(j)
        end do
      end do
      end
`
	var cycles [2]int64
	for i, mode := range []bool{false, true} {
		img := build(t, src)
		res, err := Run(img, machine.Scaled(4), RunOptions{
			Policy: ospage.FirstTouch, RedistSerial: mode})
		if err != nil {
			t.Fatal(err)
		}
		cycles[i] = res.Cycles
	}
	if cycles[0] != cycles[1] {
		t.Fatalf("run without c$redistribute differs across redist modes: %d vs %d cycles",
			cycles[0], cycles[1])
	}
}
