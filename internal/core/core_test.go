package core

import (
	"strings"
	"testing"

	"dsmdist/internal/exec"
	"dsmdist/internal/link"
	"dsmdist/internal/machine"
	"dsmdist/internal/ospage"
	"dsmdist/internal/xform"
)

func build(t *testing.T, src string) *link.Image {
	t.Helper()
	return buildAt(t, src, xform.O3())
}

func buildAt(t *testing.T, src string, opt xform.Options) *link.Image {
	t.Helper()
	tc := NewAt(opt)
	img, err := tc.Build(map[string]string{"main.f": src})
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	return img
}

func run(t *testing.T, img *link.Image, nprocs int, policy ospage.Policy) *exec.Result {
	t.Helper()
	res, err := Run(img, machine.Tiny(nprocs), RunOptions{Policy: policy})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return res
}

func arr(t *testing.T, res *exec.Result, unit, name string) []float64 {
	t.Helper()
	a, err := Array(res, unit, name)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestSerialProgram(t *testing.T) {
	img := build(t, `
      program p
      real*8 a(10)
      integer i
      do i = 1, 10
        a(i) = dble(i) * 2.0
      end do
      end
`)
	res := run(t, img, 1, ospage.FirstTouch)
	a := arr(t, res, "p", "a")
	for i := 0; i < 10; i++ {
		if a[i] != float64(i+1)*2 {
			t.Fatalf("a[%d] = %v", i, a[i])
		}
	}
	if res.Cycles <= 0 {
		t.Fatal("no cycles counted")
	}
}

func TestDoacrossBlock(t *testing.T) {
	img := build(t, `
      program p
      real*8 a(64)
c$distribute a(block)
      integer i
c$doacross local(i) shared(a) affinity(i) = data(a(i))
      do i = 1, 64
        a(i) = dble(i)
      end do
      end
`)
	res := run(t, img, 4, ospage.FirstTouch)
	a := arr(t, res, "p", "a")
	for i := 0; i < 64; i++ {
		if a[i] != float64(i+1) {
			t.Fatalf("a[%d] = %v", i, a[i])
		}
	}
	// All four processors must have executed memory traffic.
	for p := 0; p < 4; p++ {
		if res.Stats[p].Stores == 0 {
			t.Fatalf("processor %d did no stores", p)
		}
	}
}

// opt-level equivalence: the reshaped transpose must produce identical
// results at every optimization level (the Table 2 ablation levels).
func TestReshapedTransposeAllOptLevels(t *testing.T) {
	src := `
      program p
      integer n
      parameter (n = 24)
      real*8 a(n, n), b(n, n)
c$distribute_reshape a(*, block)
c$distribute_reshape b(block, *)
      integer i, j
c$doacross nest(i,j) local(i,j) affinity(i,j) = data(b(i,j))
      do i = 1, n
        do j = 1, n
          b(i, j) = dble(i*100 + j)
        end do
      end do
c$doacross local(i, j) affinity(i) = data(a(1,i))
      do i = 1, n
        do j = 1, n
          a(j, i) = b(i, j)
        end do
      end do
      end
`
	var ref []float64
	for _, opt := range []xform.Options{xform.O0(), xform.O1(), xform.O2(), xform.O3()} {
		img := buildAt(t, src, opt)
		res := run(t, img, 4, ospage.FirstTouch)
		a := arr(t, res, "p", "a")
		if ref == nil {
			ref = a
			// spot check transpose semantics
			// a(j,i) = b(i,j) = i*100+j; a is column-major:
			// a[(j-1)+(i-1)*24] = i*100+j
			if a[0] != 101 || a[1] != 102 || a[24] != 201 {
				t.Fatalf("transpose wrong: a[0..2]=%v %v, a[24]=%v", a[0], a[1], a[24])
			}
			continue
		}
		for k := range a {
			if a[k] != ref[k] {
				t.Fatalf("opt %+v: a[%d] = %v, O0 got %v", opt, k, a[k], ref[k])
			}
		}
	}
}

// Stencil peeling: neighbours cross portion boundaries.
func TestReshapedStencilPeeling(t *testing.T) {
	src := `
      program p
      integer n
      parameter (n = 40)
      real*8 a(n), b(n)
c$distribute_reshape a(block), b(block)
      integer i
c$doacross local(i) affinity(i) = data(b(i))
      do i = 1, n
        b(i) = dble(i)
      end do
c$doacross local(i) affinity(i) = data(a(i))
      do i = 2, n-1
        a(i) = (b(i-1) + b(i) + b(i+1)) / 3.0
      end do
      end
`
	for _, np := range []int{1, 3, 4, 7} {
		img := build(t, src)
		res := run(t, img, np, ospage.FirstTouch)
		a := arr(t, res, "p", "a")
		for i := 2; i <= 39; i++ {
			want := float64(3*i) / 3.0
			if a[i-1] != want {
				t.Fatalf("np=%d: a(%d) = %v, want %v", np, i, a[i-1], want)
			}
		}
	}
}

func TestCyclicDistributions(t *testing.T) {
	src := `
      program p
      integer n
      parameter (n = 30)
      real*8 a(n), b(n)
c$distribute_reshape a(cyclic)
c$distribute_reshape b(cyclic(3))
      integer i
c$doacross local(i) affinity(i) = data(a(i))
      do i = 1, n
        a(i) = dble(i)
      end do
c$doacross local(i) affinity(i) = data(b(i))
      do i = 1, n
        b(i) = dble(i) * 10.0
      end do
      end
`
	for _, np := range []int{1, 2, 4} {
		img := build(t, src)
		res := run(t, img, np, ospage.FirstTouch)
		a := arr(t, res, "p", "a")
		b := arr(t, res, "p", "b")
		for i := 0; i < 30; i++ {
			if a[i] != float64(i+1) {
				t.Fatalf("np=%d: cyclic a[%d] = %v", np, i, a[i])
			}
			if b[i] != float64(i+1)*10 {
				t.Fatalf("np=%d: cyclic(3) b[%d] = %v", np, i, b[i])
			}
		}
	}
}

func TestSubroutineCallAndCloning(t *testing.T) {
	src := `
      program p
      integer n
      parameter (n = 32)
      real*8 a(n), b(n)
c$distribute_reshape a(block)
c$distribute_reshape b(cyclic)
      integer i
c$doacross local(i) affinity(i) = data(a(i))
      do i = 1, n
        a(i) = 1.0
        b(i) = 2.0
      end do
      call scale(a, 3.0)
      call scale(b, 5.0)
      end

      subroutine scale(x, f)
      integer n, i
      parameter (n = 32)
      real*8 x(n), f
      do i = 1, n
        x(i) = x(i) * f
      end do
      return
      end
`
	img := build(t, src)
	// Two distinct reshaped signatures -> two clones of scale.
	if img.Clones["scale"] != 2 {
		t.Fatalf("scale clones = %d, want 2", img.Clones["scale"])
	}
	res := run(t, img, 4, ospage.FirstTouch)
	a := arr(t, res, "p", "a")
	b := arr(t, res, "p", "b")
	for i := 0; i < 32; i++ {
		if a[i] != 3.0 {
			t.Fatalf("a[%d] = %v", i, a[i])
		}
		if b[i] != 10.0 {
			t.Fatalf("b[%d] = %v", i, b[i])
		}
	}
}

func TestPortionArgumentPassing(t *testing.T) {
	// The paper's §3.2.1 example: pass each cyclic(5) portion chunk to a
	// subroutine that sees it as a plain 5-element array.
	src := `
      program p
      real*8 a(1000)
c$distribute_reshape a(cyclic(5))
      integer i
      do i = 1, 1000, 5
        call mysub(a(i))
      end do
      end

      subroutine mysub(x)
      real*8 x(5)
      integer j
      do j = 1, 5
        x(j) = dble(j)
      end do
      return
      end
`
	img := build(t, src)
	res := run(t, img, 4, ospage.FirstTouch)
	a := arr(t, res, "p", "a")
	for i := 0; i < 1000; i++ {
		if a[i] != float64(i%5+1) {
			t.Fatalf("a[%d] = %v", i, a[i])
		}
	}
}

func TestRuntimeCheckCatchesOversizedFormal(t *testing.T) {
	// The formal declares 6 elements but each portion is 5: §6 runtime
	// check must fire.
	src := `
      program p
      real*8 a(20)
c$distribute_reshape a(cyclic(5))
      call mysub(a(1))
      end

      subroutine mysub(x)
      real*8 x(6)
      x(1) = 0.0
      return
      end
`
	img := build(t, src)
	_, err := Run(img, machine.Tiny(4), RunOptions{})
	if err == nil || !strings.Contains(err.Error(), "portion") {
		t.Fatalf("oversized formal not caught: %v", err)
	}
}

func TestRedistributeEndToEnd(t *testing.T) {
	src := `
      program p
      integer n
      parameter (n = 64)
      real*8 a(n)
c$distribute a(block)
      integer i
c$doacross local(i) affinity(i) = data(a(i))
      do i = 1, n
        a(i) = dble(i)
      end do
c$redistribute a(cyclic)
c$doacross local(i) affinity(i) = data(a(i))
      do i = 1, n
        a(i) = a(i) + 1000.0
      end do
      end
`
	img := build(t, src)
	res := run(t, img, 4, ospage.FirstTouch)
	a := arr(t, res, "p", "a")
	for i := 0; i < 64; i++ {
		if a[i] != float64(i+1)+1000 {
			t.Fatalf("a[%d] = %v", i, a[i])
		}
	}
	if res.Pages.Migrated == 0 {
		t.Fatal("redistribute moved no pages")
	}
}

func TestParallelSpeedup(t *testing.T) {
	// A bandwidth-heavy distributed loop should speed up with procs.
	src := `
      program p
      integer n
      parameter (n = 16384)
      real*8 a(n), b(n)
c$distribute_reshape a(block), b(block)
      integer i, it
c$doacross local(i) affinity(i) = data(a(i))
      do i = 1, n
        a(i) = dble(i)
        b(i) = 0.0
      end do
      do it = 1, 3
c$doacross local(i) affinity(i) = data(b(i))
      do i = 2, n-1
        b(i) = (a(i-1) + a(i) + a(i+1)) / 3.0
      end do
      end do
      end
`
	img1 := build(t, src)
	res1 := run(t, img1, 1, ospage.FirstTouch)
	img8 := build(t, src)
	res8 := run(t, img8, 8, ospage.FirstTouch)
	sp := float64(res1.Cycles) / float64(res8.Cycles)
	if sp < 2.0 {
		t.Fatalf("8-processor speedup only %.2fx (serial %d cyc, parallel %d cyc)",
			sp, res1.Cycles, res8.Cycles)
	}
}

func TestSchedtypeSimpleWithoutAffinity(t *testing.T) {
	src := `
      program p
      real*8 a(100)
      integer i
c$doacross local(i) shared(a)
      do i = 1, 100
        a(i) = dble(i)
      end do
      end
`
	img := build(t, src)
	res := run(t, img, 3, ospage.RoundRobin)
	a := arr(t, res, "p", "a")
	for i := 0; i < 100; i++ {
		if a[i] != float64(i+1) {
			t.Fatalf("a[%d] = %v", i, a[i])
		}
	}
}

func TestInterleaveSchedule(t *testing.T) {
	src := `
      program p
      real*8 a(50)
      integer i
c$doacross local(i) shared(a) schedtype(interleave, 4)
      do i = 1, 50
        a(i) = dble(i) * 3.0
      end do
      end
`
	img := build(t, src)
	res := run(t, img, 4, ospage.FirstTouch)
	a := arr(t, res, "p", "a")
	for i := 0; i < 50; i++ {
		if a[i] != float64(i+1)*3 {
			t.Fatalf("a[%d] = %v", i, a[i])
		}
	}
}

func TestCommonBlockSharing(t *testing.T) {
	src := `
      program p
      real*8 a(16)
      common /shared/ a
      integer i
      do i = 1, 16
        a(i) = dble(i)
      end do
      call bump
      end

      subroutine bump
      real*8 a(16)
      common /shared/ a
      integer i
      do i = 1, 16
        a(i) = a(i) + 100.0
      end do
      return
      end
`
	img := build(t, src)
	res := run(t, img, 2, ospage.FirstTouch)
	a := arr(t, res, "p", "a")
	for i := 0; i < 16; i++ {
		if a[i] != float64(i+1)+100 {
			t.Fatalf("a[%d] = %v", i, a[i])
		}
	}
}

func TestLinkErrors(t *testing.T) {
	tc := New()
	// Undefined subroutine.
	_, err := tc.Build(map[string]string{"m.f": `
      program p
      call nosuch
      end
`})
	if err == nil || !strings.Contains(err.Error(), "undefined subroutine") {
		t.Fatalf("undefined call: %v", err)
	}
	// Duplicate definitions.
	_, err = tc.Build(map[string]string{
		"a.f": "      program p\n      end\n      subroutine s\n      end\n",
		"b.f": "      subroutine s\n      end\n",
	})
	if err == nil || !strings.Contains(err.Error(), "defined in both") {
		t.Fatalf("duplicate defs: %v", err)
	}
	// Whole reshaped array with mismatched extent (§3.2.1).
	_, err = tc.Build(map[string]string{"m.f": `
      program p
      real*8 a(32)
c$distribute_reshape a(block)
      call s(a)
      end

      subroutine s(x)
      real*8 x(16)
      x(1) = 0.0
      end
`})
	if err == nil || !strings.Contains(err.Error(), "match exactly") {
		t.Fatalf("shape mismatch: %v", err)
	}
	// Extents whose product wraps an int64.
	_, err = tc.Build(map[string]string{"m.f": "      program p\n      real*8 x(3000000,3000000,3000000)\n      x(1,1,1) = 1.0\n      end\n"})
	if err == nil || !strings.Contains(err.Error(), "array x") || !strings.Contains(err.Error(), "overflow") {
		t.Fatalf("array size overflow: %v", err)
	}
}

func TestCommonConsistencyLinkCheck(t *testing.T) {
	tc := New()
	// Reshaped common member declared with different extents in two
	// files (§6 link-time check).
	_, err := tc.Build(map[string]string{
		"a.f": `
      program p
      real*8 a(32)
c$distribute_reshape a(block)
      common /blk/ a
      a(1) = 0.0
      call s
      end
`,
		"b.f": `
      subroutine s
      real*8 a(16)
c$distribute_reshape a(block)
      common /blk/ a
      a(1) = 0.0
      end
`,
	})
	if err == nil || !strings.Contains(err.Error(), "§6") {
		t.Fatalf("common inconsistency not caught: %v", err)
	}
	// Consistent declarations link fine.
	_, err = tc.Build(map[string]string{
		"a.f": `
      program p
      real*8 a(32)
c$distribute_reshape a(block)
      common /blk/ a
      a(1) = 0.0
      call s
      end
`,
		"b.f": `
      subroutine s
      real*8 a(32)
c$distribute_reshape a(block)
      common /blk/ a
      a(2) = 0.0
      end
`,
	})
	if err != nil {
		t.Fatalf("consistent commons rejected: %v", err)
	}
}

func TestPortionIntrinsics(t *testing.T) {
	src := `
      program p
      real*8 a(40), lo(8), hi(8)
c$distribute a(block)
      integer q, np
      np = dsm_numthreads()
      do q = 1, np
        lo(q) = dble(dsm_portion_lo(a, 1, q - 1))
        hi(q) = dble(dsm_portion_hi(a, 1, q - 1))
      end do
      end
`
	img := build(t, src)
	res := run(t, img, 4, ospage.FirstTouch)
	lo := arr(t, res, "p", "lo")
	hi := arr(t, res, "p", "hi")
	// 40 elements over 4 procs, block: portions of 10.
	for q := 0; q < 4; q++ {
		if lo[q] != float64(q*10+1) || hi[q] != float64((q+1)*10) {
			t.Fatalf("portion %d = [%v, %v]", q, lo[q], hi[q])
		}
	}
}

func TestDynamicScheduling(t *testing.T) {
	for _, sched := range []string{"schedtype(dynamic)", "schedtype(dynamic, 4)", "schedtype(gss)"} {
		src := `
      program p
      real*8 a(100)
      integer i
c$doacross local(i) shared(a) ` + sched + `
      do i = 1, 100
        a(i) = dble(i) * 2.0
      end do
      end
`
		img := build(t, src)
		res := run(t, img, 4, ospage.FirstTouch)
		a := arr(t, res, "p", "a")
		for i := 0; i < 100; i++ {
			if a[i] != float64(i+1)*2 {
				t.Fatalf("%s: a[%d] = %v", sched, i, a[i])
			}
		}
		// All processors should have participated (work available
		// exceeds one chunk).
		busy := 0
		for p := 0; p < 4; p++ {
			if res.Stats[p].Stores > 0 {
				busy++
			}
		}
		if busy < 2 {
			t.Fatalf("%s: only %d processors did work", sched, busy)
		}
	}
}

func TestDynamicScheduleEmptyLoop(t *testing.T) {
	img := build(t, `
      program p
      real*8 a(10)
      integer i
c$doacross local(i) shared(a) schedtype(dynamic)
      do i = 5, 4
        a(i) = 1.0
      end do
      a(1) = 9.0
      end
`)
	res := run(t, img, 3, ospage.FirstTouch)
	a := arr(t, res, "p", "a")
	if a[0] != 9.0 || a[4] != 0.0 {
		t.Fatalf("empty dynamic loop ran: %v", a[:5])
	}
}

func TestMoreProcsThanElements(t *testing.T) {
	// 12 processors, 5 elements: most portions are empty; bounds math
	// must produce empty loops, not out-of-range traffic.
	img := build(t, `
      program p
      real*8 a(5)
c$distribute_reshape a(block)
      integer i
c$doacross local(i) affinity(i) = data(a(i))
      do i = 1, 5
        a(i) = dble(i)
      end do
      end
`)
	res := run(t, img, 12, ospage.FirstTouch)
	a := arr(t, res, "p", "a")
	for i := 0; i < 5; i++ {
		if a[i] != float64(i+1) {
			t.Fatalf("a[%d] = %v", i, a[i])
		}
	}
}

func TestNegativeStepLoop(t *testing.T) {
	img := build(t, `
      program p
      real*8 a(10)
      integer i, c
      c = 0
      do i = 10, 1, -1
        c = c + 1
        a(i) = dble(c)
      end do
      end
`)
	res := run(t, img, 1, ospage.FirstTouch)
	a := arr(t, res, "p", "a")
	// a(10) written first (c=1), a(1) last (c=10).
	if a[9] != 1 || a[0] != 10 {
		t.Fatalf("reverse loop order wrong: a(10)=%v a(1)=%v", a[9], a[0])
	}
}

func TestNestedSerialLoopsInsideRegion(t *testing.T) {
	// Inner serial loops of a doacross body run in full per processor.
	img := build(t, `
      program p
      real*8 a(8, 8)
c$distribute_reshape a(*, block)
      integer i, j
c$doacross local(i, j) affinity(j) = data(a(1, j))
      do j = 1, 8
        do i = 1, 8
          a(i, j) = dble(i*10 + j)
        end do
      end do
      end
`)
	res := run(t, img, 4, ospage.FirstTouch)
	a := arr(t, res, "p", "a")
	for j := 1; j <= 8; j++ {
		for i := 1; i <= 8; i++ {
			if a[(i-1)+(j-1)*8] != float64(i*10+j) {
				t.Fatalf("a(%d,%d) = %v", i, j, a[(i-1)+(j-1)*8])
			}
		}
	}
}
