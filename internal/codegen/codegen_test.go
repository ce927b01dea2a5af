package codegen

import (
	"strings"
	"testing"

	"dsmdist/internal/bytecode"
	"dsmdist/internal/dist"
	"dsmdist/internal/fortran"
	"dsmdist/internal/ir"
	"dsmdist/internal/sema"
	"dsmdist/internal/xform"
)

// compileSrc runs the front half of the pipeline and codegen on one file.
func compileSrc(t *testing.T, src string, opt xform.Options, checks bool) *Result {
	t.Helper()
	f, err := fortran.Parse("t.f", src)
	if err != nil {
		t.Fatal(err)
	}
	units, err := sema.AnalyzeFile(f)
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range units {
		xform.Transform(u, opt)
	}
	idx := map[string]int{}
	for i, u := range units {
		idx[u.Name] = i
	}
	res, err := Program(units, Env{
		Resolve: func(name string, sig []*dist.Spec) (int, error) {
			if i, ok := idx[name]; ok {
				return i, nil
			}
			t.Fatalf("unresolved %s", name)
			return 0, nil
		},
	}, Options{FPDiv: opt.FPDiv, RuntimeChecks: checks})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

const twoUnitSrc = `
      program p
      real*8 a(16), x
      common /blk/ a
c$distribute a(block)
      integer i
      do i = 1, 16
        a(i) = 0.0
      end do
      call s(x)
      end

      subroutine s(y)
      real*8 a(16), y
      common /blk/ a
      y = a(1)
      return
      end
`

func TestCommonSharedAcrossUnits(t *testing.T) {
	res := compileSrc(t, twoUnitSrc, xform.O3(), false)
	// Exactly one plan for the common array and one descriptor.
	var plans int
	for _, ap := range res.Arrays {
		if ap.Name == "a" {
			plans++
			if ap.DescSym < 0 {
				t.Fatal("distributed common member lost its descriptor")
			}
		}
	}
	if plans != 1 {
		t.Fatalf("plans for common a = %d, want 1 shared plan", plans)
	}
}

func TestFnIndexStability(t *testing.T) {
	res := compileSrc(t, twoUnitSrc, xform.O3(), false)
	// Unit fns occupy the first slots in order; regions follow.
	if res.Prog.Fns[0].Name != "p" || res.Prog.Fns[1].Name != "s" {
		t.Fatalf("fn order: %s, %s", res.Prog.Fns[0].Name, res.Prog.Fns[1].Name)
	}
	if res.Prog.Main != 0 {
		t.Fatalf("main = %d", res.Prog.Main)
	}
}

func TestFPDivFlag(t *testing.T) {
	src := `
      program p
      integer i, j
      i = 7
      j = i / 2 + mod(i, 3)
      end
`
	count := func(res *Result, op bytecode.Op) int {
		n := 0
		for _, f := range res.Prog.Fns {
			for _, in := range f.Code {
				if in.Op == op {
					n++
				}
			}
		}
		return n
	}
	hard := compileSrc(t, src, xform.O2(), false) // FPDiv off
	soft := compileSrc(t, src, xform.O3(), false) // FPDiv on
	if count(hard, bytecode.DivI) == 0 || count(hard, bytecode.FpDivI) != 0 {
		t.Fatal("O2 must emit hardware divides")
	}
	if count(soft, bytecode.DivI) != 0 || count(soft, bytecode.FpDivI) == 0 {
		t.Fatal("O3 must emit software divides")
	}
}

func TestRuntimeChecksEmission(t *testing.T) {
	src := `
      program p
      real*8 a(20)
c$distribute_reshape a(block)
      call s(a)
      end

      subroutine s(x)
      real*8 x(20)
      x(1) = 0.0
      return
      end
`
	with := compileSrc(t, src, xform.O3(), true)
	without := compileSrc(t, src, xform.O3(), false)
	countRTC := func(res *Result, id int32) int {
		n := 0
		for _, f := range res.Prog.Fns {
			for _, in := range f.Code {
				if in.Op == bytecode.RTC && in.A == id {
					n++
				}
			}
		}
		return n
	}
	if countRTC(with, bytecode.RTArgPush) == 0 || countRTC(with, bytecode.RTArgCheck) == 0 {
		t.Fatal("checks enabled but no push/check emitted")
	}
	if countRTC(without, bytecode.RTArgPush) != 0 {
		t.Fatal("checks disabled but push emitted")
	}
	if len(with.Checks) == 0 {
		t.Fatal("check table empty")
	}
}

func TestRegionOutlining(t *testing.T) {
	src := `
      program p
      real*8 a(32)
      integer i, n
      n = 32
c$doacross local(i) shared(a, n)
      do i = 1, n
        a(i) = dble(n)
      end do
      end
`
	res := compileSrc(t, src, xform.O3(), false)
	var region *bytecode.Fn
	for _, f := range res.Prog.Fns {
		if f.IsRegion {
			region = f
		}
	}
	if region == nil {
		t.Fatal("no region function")
	}
	if !strings.HasPrefix(region.Name, "p$r") {
		t.Fatalf("region name %q", region.Name)
	}
	// The shared scalar n is captured: region has at least one arg.
	if region.NArgs == 0 {
		t.Fatal("region captured nothing; shared scalar n missing")
	}
	// Main contains a ParCall to it.
	found := false
	for _, in := range res.Prog.Fns[res.Prog.Main].Code {
		if in.Op == bytecode.ParCall {
			found = true
		}
	}
	if !found {
		t.Fatal("no ParCall in main")
	}
}

func TestDynamicLocalArrayCompiles(t *testing.T) {
	// Dynamically sized local arrays (§3.2) allocate automatic storage
	// at unit entry via RTAllocStack.
	src := `
      subroutine s(n)
      integer n
      real*8 w(n)
      w(1) = 0.0
      return
      end

      program p
      call s(4)
      end
`
	f, err := fortran.Parse("t.f", src)
	if err != nil {
		t.Fatal(err)
	}
	units, err := sema.AnalyzeFile(f)
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range units {
		xform.Transform(u, xform.O3())
	}
	idx := map[string]int{"s": 0, "p": 1}
	res, err := Program(units, Env{Resolve: func(name string, _ []*dist.Spec) (int, error) {
		return idx[name], nil
	}}, Options{})
	if err != nil {
		t.Fatalf("dynamic local rejected: %v", err)
	}
	// The subroutine must call the stack allocator.
	found := false
	for _, in := range res.Prog.Fns[0].Code {
		if in.Op == bytecode.RTC && in.A == bytecode.RTAllocStack {
			found = true
		}
	}
	if !found {
		t.Fatal("no RTAllocStack emitted for dynamic local array")
	}
	// A *distributed* dynamic local is still rejected.
	src2 := `
      program p
      call s(4)
      end

      subroutine s(n)
      integer n
      real*8 w(n)
c$distribute_reshape w(block)
      w(1) = 0.0
      return
      end
`
	f2, err := fortran.Parse("t.f", src2)
	if err != nil {
		t.Fatal(err)
	}
	units2, err := sema.AnalyzeFile(f2)
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range units2 {
		xform.Transform(u, xform.O3())
	}
	_, err = Program(units2, Env{Resolve: func(string, []*dist.Spec) (int, error) { return 0, nil }}, Options{})
	if err == nil || !strings.Contains(err.Error(), "not supported") {
		t.Fatalf("distributed dynamic local: err = %v", err)
	}
}

func TestRegularDistOnFormalRejected(t *testing.T) {
	src := `
      program p
      call s
      end

      subroutine s(x)
      real*8 x(10)
c$distribute x(block)
      x(1) = 0.0
      return
      end
`
	f, err := fortran.Parse("t.f", src)
	if err != nil {
		t.Fatal(err)
	}
	units, err := sema.AnalyzeFile(f)
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range units {
		xform.Transform(u, xform.O3())
	}
	_, err = Program(units, Env{Resolve: func(string, []*dist.Spec) (int, error) { return 1, nil }}, Options{})
	if err == nil || !strings.Contains(err.Error(), "regular distribution on dummy") {
		t.Fatalf("err = %v", err)
	}
}

func TestDescLayoutHelpers(t *testing.T) {
	if DescTableOff(2) != int64(2*ir.DescFields*8) {
		t.Fatal("table offset wrong")
	}
	if DescBytes(3) <= DescTableOff(3) {
		t.Fatal("descriptor too small for its table")
	}
}

// TestArraySizeOverflowRejected: extents whose product wraps an int64 used
// to be laid out as an 8-byte symbol, so stores to the array ran over its
// neighbours. The size is overflow-checked wherever it is recorded: a static
// array, a common member and its block, and a formal's CheckInfo.
func TestArraySizeOverflowRejected(t *testing.T) {
	for name, src := range map[string]string{
		"x": `
      program p
      real*8 x(3000000,3000000,3000000), y(4)
      x(1,1,1) = 1.0
      y(1) = x(1,1,1)
      end
`,
		"neg": `
      program p
      real*8 neg(-5)
      neg(1) = 1.0
      end
`,
		"c": `
      program p
      real*8 c(4000000000,4000000000)
      common /blk/ c
      c(1,1) = 1.0
      end
`,
		"/blk/": `
      program p
      real*8 c(1000000000,1000000000), d(1000000000,1000000000)
      common /blk/ c, d
      c(1,1) = 1.0
      end
`,
		"f": `
      program p
      real*8 a(4)
      call s(a)
      end

      subroutine s(f)
      real*8 f(3000000,3000000,3000000)
      f(1,1,1) = 0.0
      return
      end
`,
	} {
		f, err := fortran.Parse("t.f", src)
		if err != nil {
			t.Fatal(err)
		}
		units, err := sema.AnalyzeFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, u := range units {
			xform.Transform(u, xform.O3())
		}
		_, err = Program(units, Env{Resolve: func(string, []*dist.Spec) (int, error) { return 1, nil }}, Options{RuntimeChecks: true})
		if err == nil || !strings.Contains(err.Error(), name) || !strings.Contains(err.Error(), "overflow") {
			t.Errorf("%s: err = %v, want an overflow error naming it", name, err)
		}
	}

	// The boundary: 2^62 bytes fit, 2^63 do not.
	if n, ok := arrayBytes([]int64{1 << 30, 1 << 29}); !ok || n != 1<<62 {
		t.Errorf("arrayBytes(2^30, 2^29) = %d, %v; want 2^62", n, ok)
	}
	if n, ok := arrayBytes([]int64{1 << 30, 1 << 30}); ok {
		t.Errorf("arrayBytes(2^30, 2^30) = %d, want it rejected", n)
	}
}
