package exec

import (
	"strings"
	"testing"

	"dsmdist/internal/link"
	"dsmdist/internal/machine"
	"dsmdist/internal/obj"
	"dsmdist/internal/ospage"
	"dsmdist/internal/xform"
)

func compileSrc(t *testing.T, src string) *link.Image {
	t.Helper()
	o, err := obj.Compile("x.f", src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	img, err := link.Link([]*obj.Object{o}, link.Config{Opt: xform.O3(), RuntimeChecks: true})
	if err != nil {
		t.Fatalf("link: %v", err)
	}
	return img
}

func runSrc(t *testing.T, src string, nprocs int) (*Result, error) {
	t.Helper()
	return Run(compileSrc(t, src).Res, machine.Tiny(nprocs), Options{Policy: ospage.FirstTouch})
}

func TestExplicitBarrierInsideRegion(t *testing.T) {
	// Each processor writes its partition, all barrier, then each reads a
	// neighbour's value written before the barrier. Without the
	// rendezvous this would race; with it every read sees the write.
	res, err := runSrc(t, `
      program p
      real*8 a(8), b(8)
      integer i
c$doacross local(i) shared(a, b)
      do i = 1, 8
        a(i) = dble(i) * 2.0
        call dsm_barrier
        b(i) = a(mod(i, 8) + 1)
      end do
      end
`, 8)
	if err != nil {
		t.Fatal(err)
	}
	st := res.RT.ArrayByName("p", "b")
	b := res.RT.Gather(st)
	for i := 1; i <= 8; i++ {
		want := float64(i%8+1) * 2.0
		if b[i-1] != want {
			t.Fatalf("b(%d) = %v, want %v", i, b[i-1], want)
		}
	}
}

func TestForkJoinClocks(t *testing.T) {
	res, err := runSrc(t, `
      program p
      real*8 a(64)
      integer i
c$doacross local(i) shared(a)
      do i = 1, 64
        a(i) = dble(i)
      end do
      end
`, 4)
	if err != nil {
		t.Fatal(err)
	}
	// The implicit end barrier synchronizes all clocks; the reported
	// wall time is the max, and every processor's clock equals it.
	for p := 0; p < 4; p++ {
		if c := res.RT.Sys.Clock(p); c != res.Cycles {
			// proc 0 runs serial epilogue after the region; others
			// stay at the barrier-release time.
			if p == 0 {
				continue
			}
			if c > res.Cycles {
				t.Fatalf("proc %d clock %d exceeds wall %d", p, c, res.Cycles)
			}
		}
	}
	if res.Cycles <= 0 || res.Instrs <= 0 {
		t.Fatal("counters missing")
	}
}

func TestRuntimeTrapSurfaces(t *testing.T) {
	_, err := runSrc(t, `
      program p
      real*8 a(10)
      integer i, k
      k = 0
c$doacross local(i) shared(a, k)
      do i = 1, 10
        a(i) = dble(i / k)
      end do
      end
`, 2)
	if err == nil || !strings.Contains(err.Error(), "division by zero") {
		t.Fatalf("trap not surfaced: %v", err)
	}
	if !strings.Contains(err.Error(), "processor") {
		t.Fatalf("error lacks processor context: %v", err)
	}
}

func TestTimerMeasuresSection(t *testing.T) {
	res, err := runSrc(t, `
      program p
      real*8 a(512)
      integer i
      do i = 1, 512
        a(i) = 0.0
      end do
      call dsm_timer_start
      do i = 1, 512
        a(i) = dble(i)
      end do
      call dsm_timer_stop
      do i = 1, 512
        a(i) = a(i) + 1.0
      end do
      end
`, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.TimerCycles <= 0 || res.TimerCycles >= res.Cycles {
		t.Fatalf("timer section %d of total %d", res.TimerCycles, res.Cycles)
	}
	// Roughly a third of the work (three similar loops).
	if res.TimerCycles > res.Cycles/2 {
		t.Fatalf("timer section %d too large vs total %d", res.TimerCycles, res.Cycles)
	}
}

func TestSerialBarrierIsNoop(t *testing.T) {
	res, err := runSrc(t, `
      program p
      real*8 x
      call dsm_barrier
      x = 1.0
      call dsm_barrier
      end
`, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles <= 0 {
		t.Fatal("no progress")
	}
}

func TestManyRegionsSequence(t *testing.T) {
	// Ten successive doacross regions: fork/join bookkeeping must not
	// leak state between regions.
	res, err := runSrc(t, `
      program p
      real*8 a(32)
      integer i, it
      do it = 1, 10
c$doacross local(i) shared(a)
      do i = 1, 32
        a(i) = a(i) + 1.0
      end do
      end do
      end
`, 4)
	if err != nil {
		t.Fatal(err)
	}
	a := res.RT.Gather(res.RT.ArrayByName("p", "a"))
	for i, v := range a {
		if v != 10.0 {
			t.Fatalf("a[%d] = %v", i, v)
		}
	}
}

// mixedSrc mixes distributed arrays, a barrier rendezvous inside a region,
// a redistribute, integer divides and a serial tail between regions.
const mixedSrc = `
      program p
      integer n
      parameter (n = 96)
      real*8 a(n, n), b(n)
c$distribute a(*, block)
      integer i, j, it
c$doacross nest(j, i) local(i, j) shared(a) affinity(j, i) = data(a(i, j))
      do j = 1, n
        do i = 1, n
          a(i, j) = dble(i) + dble(j)
        end do
      end do
      do it = 1, 2
c$doacross local(i, j) shared(a) affinity(j) = data(a(1, j))
      do j = 1, n
        do i = 2, n
          a(i, j) = a(i, j) + a(i-1, j) * 0.5
        end do
      end do
      end do
c$redistribute a(block, *)
c$doacross local(i, j) shared(a) affinity(i) = data(a(i, 1))
      do i = 1, n
        do j = 2, n
          a(i, j) = a(i, j) + a(i, j-1) * 0.5
        end do
      end do
c$doacross local(i) shared(b)
      do i = 1, n
        b(i) = dble(mod(i * 7, 13)) / dble(i)
        call dsm_barrier
        b(i) = b(i) + b(mod(i, n) + 1) * 1.0d-9
      end do
      end
`

// TestQuantumBudgetErrorNamesFlag checks the runaway guard reports the
// limit and how to raise it.
func TestQuantumBudgetErrorNamesFlag(t *testing.T) {
	img := compileSrc(t, mixedSrc)
	_, err := Run(img.Res, machine.Tiny(4), Options{
		Policy:    ospage.FirstTouch,
		MaxQuanta: 8,
	})
	if err == nil || !strings.Contains(err.Error(), "quantum budget of 8") ||
		!strings.Contains(err.Error(), "-max-quanta") {
		t.Errorf("budget error = %v", err)
	}
}
