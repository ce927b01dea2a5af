package sema

import (
	"strings"
	"testing"

	"dsmdist/internal/dist"
	"dsmdist/internal/fortran"
	"dsmdist/internal/ir"
)

func analyze(t *testing.T, src string) []*ir.Unit {
	t.Helper()
	f, err := fortran.Parse("test.f", src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	units, err := AnalyzeFile(f)
	if err != nil {
		t.Fatalf("sema: %v", err)
	}
	return units
}

func analyzeErr(t *testing.T, src, wantSub string) {
	t.Helper()
	f, err := fortran.Parse("test.f", src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	_, err = AnalyzeFile(f)
	if err == nil {
		t.Fatalf("expected error containing %q", wantSub)
	}
	if !strings.Contains(err.Error(), wantSub) {
		t.Fatalf("error %q does not contain %q", err.Error(), wantSub)
	}
}

func findSym(t *testing.T, u *ir.Unit, name string) *ir.Sym {
	t.Helper()
	for _, s := range u.Syms {
		if s.Name == name {
			return s
		}
	}
	t.Fatalf("symbol %s not found", name)
	return nil
}

func TestBasicTypesAndParams(t *testing.T) {
	units := analyze(t, `
      program p
      integer n
      parameter (n = 10)
      real*8 a(n, 2*n)
      integer i
      do i = 1, n
        a(i, i) = 1.5
      end do
      end
`)
	u := units[0]
	if !u.IsProgram {
		t.Fatal("program flag lost")
	}
	a := findSym(t, u, "a")
	d, ok := a.ConstDims()
	if !ok || d[0] != 10 || d[1] != 20 {
		t.Fatalf("dims = %v (parameter folding broken)", d)
	}
	i := findSym(t, u, "i")
	if i.Type != ir.Int || i.Kind != ir.Scalar {
		t.Fatalf("i = %+v", i)
	}
}

func TestImplicitTyping(t *testing.T) {
	units := analyze(t, `
      program p
      x = 1.0
      k = 3
      end
`)
	u := units[0]
	if findSym(t, u, "x").Type != ir.Real {
		t.Error("x should be real by implicit rule")
	}
	if findSym(t, u, "k").Type != ir.Int {
		t.Error("k should be integer by implicit rule")
	}
}

func TestTypeCoercion(t *testing.T) {
	units := analyze(t, `
      program p
      real*8 x
      integer i
      i = 3
      x = i * 2.5
      i = x
      end
`)
	u := units[0]
	// x = i * 2.5 must wrap i in a conversion
	as := u.Body[1].(*ir.Assign)
	bin := as.Rhs.(*ir.Bin)
	if bin.Ty != ir.Real {
		t.Fatalf("mixed arith type = %v", bin.Ty)
	}
	if _, ok := bin.L.(*ir.Cvt); !ok {
		t.Fatalf("int operand not converted: %s", ir.ExprString(bin.L))
	}
	// i = x must convert back
	as2 := u.Body[2].(*ir.Assign)
	if _, ok := as2.Rhs.(*ir.Cvt); !ok {
		t.Fatalf("real-to-int assign not converted: %s", ir.ExprString(as2.Rhs))
	}
}

func TestDistributeAttach(t *testing.T) {
	units := analyze(t, `
      program p
      integer k
      parameter (k = 4)
      real*8 a(100, 100), b(100)
c$distribute a(*, block)
c$distribute_reshape b(cyclic(k))
      a(1,1) = 0.0
      end
`)
	u := units[0]
	a := findSym(t, u, "a")
	if a.Dist == nil || a.Dist.Reshape || a.Dist.Dims[1].Kind != dist.Block {
		t.Fatalf("a dist = %+v", a.Dist)
	}
	b := findSym(t, u, "b")
	if b.Dist == nil || !b.Dist.Reshape || b.Dist.Dims[0].Kind != dist.BlockCyclic || b.Dist.Dims[0].Chunk != 4 {
		t.Fatalf("b dist = %+v", b.Dist)
	}
}

func TestDistributeErrors(t *testing.T) {
	analyzeErr(t, `
      program p
      real*8 a(10)
c$distribute a(block, block)
      end
`, "2 specifiers, array has 1")
	analyzeErr(t, `
      program p
      real*8 x
c$distribute x(block)
      end
`, "not an array")
	analyzeErr(t, `
      program p
c$distribute nosuch(block)
      end
`, "unknown array")
	analyzeErr(t, `
      program p
      real*8 a(10)
c$distribute a(block)
c$distribute_reshape a(cyclic)
      end
`, "already has a distribution")
	// One lowering serves c$distribute and c$redistribute, so both name
	// the array and dimension of a bad chunk.
	analyzeErr(t, `
      program p
      real*8 a(10, 10)
c$distribute a(*, cyclic(0))
      end
`, "cyclic chunk for a dim 2")
	analyzeErr(t, `
      program p
      real*8 a(10, 10)
c$distribute a(block, *)
c$redistribute a(*, cyclic(0))
      end
`, "cyclic chunk for a dim 2")
	// A chunk whose product with the processor count could wrap is a
	// compile error, not a division by zero at load time.
	analyzeErr(t, `
      program p
      real*8 a(16)
c$distribute_reshape a(cyclic(4611686018427387904))
      end
`, "test.f:4: cyclic chunk 4611686018427387904 for a dim 1 exceeds the 2147483647 (2^31-1) limit")
}

func TestEquivalenceReshapeRejected(t *testing.T) {
	// Compile-time check of §6.
	analyzeErr(t, `
      program p
      real*8 a(10), b(10)
c$distribute_reshape a(block)
      equivalence (a, b)
      end
`, "cannot be equivalenced")
	// Equivalence without reshape is fine.
	analyze(t, `
      program p
      real*8 a(10), b(10)
c$distribute a(block)
      equivalence (a, b)
      end
`)
}

func TestRedistributeChecks(t *testing.T) {
	units := analyze(t, `
      program p
      real*8 a(10, 10)
c$distribute a(block, *)
c$redistribute a(*, block)
      end
`)
	rd := units[0].Body[0].(*ir.Redist)
	if rd.Spec.Dims[1].Kind != dist.Block {
		t.Fatalf("redist spec = %+v", rd.Spec)
	}
	if !findSym(t, units[0], "a").Redistributed {
		t.Fatal("Redistributed flag not set")
	}
	// §3.3: reshaped arrays cannot be redistributed.
	analyzeErr(t, `
      program p
      real*8 a(10)
c$distribute_reshape a(block)
c$redistribute a(cyclic)
      end
`, "cannot redistribute reshaped")
}

func TestAffinityAnalysis(t *testing.T) {
	units := analyze(t, `
      program p
      real*8 a(100)
c$distribute a(block)
      integer i
c$doacross local(i) shared(a) affinity(i) = data(a(2*i + 3))
      do i = 1, 40
        a(2*i+3) = 1.0
      end do
      end
`)
	do := units[0].Body[0].(*ir.Do)
	aff := do.Par.Affinity
	if aff == nil || aff.Array.Name != "a" {
		t.Fatalf("affinity = %+v", aff)
	}
	ad := aff.Dims[0]
	if ad.Var == nil || ad.Var.Name != "i" || ad.A != 2 || ad.C0 != 2 {
		t.Fatalf("affinity dim = %+v (want var i, a=2, c0=2)", ad)
	}
}

func TestAffinity2D(t *testing.T) {
	units := analyze(t, `
      program p
      real*8 a(64, 64)
c$distribute_reshape a(block, block)
      integer i, j
c$doacross nest(i,j) local(i,j) affinity(i,j) = data(a(i,j))
      do i = 1, 64
        do j = 1, 64
          a(i,j) = 0.0
        end do
      end do
      end
`)
	do := units[0].Body[0].(*ir.Do)
	if do.Par.Nest != 2 {
		t.Fatalf("nest = %d", do.Par.Nest)
	}
	aff := do.Par.Affinity
	if aff.Dims[0].Var.Name != "i" || aff.Dims[1].Var.Name != "j" {
		t.Fatalf("affinity dims = %+v", aff.Dims)
	}
}

func TestAffinityErrors(t *testing.T) {
	analyzeErr(t, `
      program p
      real*8 a(100)
      integer i
c$doacross local(i) affinity(i) = data(a(i))
      do i = 1, 100
        a(i) = 0.0
      end do
      end
`, "not distributed")
	analyzeErr(t, `
      program p
      real*8 a(100)
c$distribute a(block)
      integer i
c$doacross local(i) affinity(i) = data(a(i*i))
      do i = 1, 10
        a(i*i) = 0.0
      end do
      end
`, "not of the form")
	// Negative coefficient rejected (§3.4).
	analyzeErr(t, `
      program p
      real*8 a(100)
c$distribute a(block)
      integer i
c$doacross local(i) affinity(i) = data(a(100 - i))
      do i = 1, 99
        a(100-i) = 0.0
      end do
      end
`, "non-negative")
}

func TestSharedScalarWriteRejected(t *testing.T) {
	analyzeErr(t, `
      program p
      real*8 a(100)
      integer i
      real*8 s
c$doacross local(i) shared(a, s)
      do i = 1, 100
        s = 1.0
        a(i) = s
      end do
      end
`, "not in its local clause")
}

func TestLocalScalarWriteAllowed(t *testing.T) {
	analyze(t, `
      program p
      real*8 a(100)
      integer i
      real*8 s
c$doacross local(i, s) shared(a)
      do i = 1, 100
        s = 1.0
        a(i) = s
      end do
      end
`)
}

func TestNestRequiresPerfectNest(t *testing.T) {
	analyzeErr(t, `
      program p
      real*8 a(10,10)
      integer i, j
c$doacross nest(i,j) local(i,j)
      do i = 1, 10
        a(i,1) = 0.0
        do j = 1, 10
          a(i,j) = 0.0
        end do
      end do
      end
`, "perfectly nested")
}

func TestCallArgLowering(t *testing.T) {
	units := analyze(t, `
      program p
      real*8 a(10), x
      integer i
      i = 2
      call work(a, a(i), x, i+1)
      end

      subroutine work(arr, elem, s, k)
      integer k
      real*8 arr(10), elem(1), s
      s = 0.0
      return
      end
`)
	u := units[0]
	// i+1 becomes a temp assignment followed by the call.
	var call *ir.CallStmt
	for _, s := range u.Body {
		if c, ok := s.(*ir.CallStmt); ok {
			call = c
		}
	}
	if call == nil || len(call.Args) != 4 {
		t.Fatalf("call = %+v", call)
	}
	if _, ok := call.Args[0].(*ir.ArgArray); !ok {
		t.Fatalf("whole array arg = %T", call.Args[0])
	}
	if _, ok := call.Args[1].(*ir.ArrayRef); !ok {
		t.Fatalf("element arg = %T", call.Args[1])
	}
	vr, ok := call.Args[2].(*ir.VarRef)
	if !ok || !vr.Sym.Addressed {
		t.Fatalf("scalar arg not addressed: %+v", call.Args[2])
	}
	tr, ok := call.Args[3].(*ir.VarRef)
	if !ok || !tr.Sym.Addressed || !strings.HasPrefix(tr.Sym.Name, "~") {
		t.Fatalf("expr arg not desugared: %+v", call.Args[3])
	}
}

func TestIntrinsics(t *testing.T) {
	units := analyze(t, `
      program p
      integer i, j
      real*8 x
      i = mod(j, 4)
      i = min(i, j, 3)
      x = sqrt(abs(x))
      x = dble(i)
      i = int(x)
      end
`)
	u := units[0]
	as0 := u.Body[0].(*ir.Assign)
	if b, ok := as0.Rhs.(*ir.Bin); !ok || b.Op != ir.Mod {
		t.Fatalf("mod lowering = %s", ir.ExprString(as0.Rhs))
	}
	as1 := u.Body[1].(*ir.Assign)
	if in, ok := as1.Rhs.(*ir.Intrinsic); !ok || in.Op != ir.IMin {
		t.Fatalf("min lowering = %s", ir.ExprString(as1.Rhs))
	}
	as2 := u.Body[2].(*ir.Assign)
	if in, ok := as2.Rhs.(*ir.Intrinsic); !ok || in.Op != ir.ISqrt {
		t.Fatalf("sqrt lowering = %s", ir.ExprString(as2.Rhs))
	}
}

func TestRuntimeIntrinsics(t *testing.T) {
	units := analyze(t, `
      program p
      real*8 a(100)
c$distribute a(block)
      integer i, np, lo, hi
      np = dsm_numthreads()
      lo = dsm_portion_lo(a, 1, 0)
      hi = dsm_portion_hi(a, 1, 0)
c$doacross local(i)
      do i = 1, 100
        a(i) = dble(dsm_this_thread())
      end do
      call dsm_barrier
      end
`)
	u := units[0]
	if _, ok := u.Body[0].(*ir.Assign).Rhs.(*ir.Nprocs); !ok {
		t.Fatal("dsm_numthreads not lowered")
	}
	if rf, ok := u.Body[1].(*ir.Assign).Rhs.(*ir.RTFunc); !ok || rf.Kind != ir.RTPortionLo {
		t.Fatal("dsm_portion_lo not lowered")
	}
	found := false
	ir.WalkStmts(u.Body, nil, func(e ir.Expr) bool {
		if _, ok := e.(*ir.Myid); ok {
			found = true
		}
		return true
	})
	if !found {
		t.Fatal("dsm_this_thread inside region not lowered to Myid")
	}
	hasBarrier := false
	for _, s := range u.Body {
		if _, ok := s.(*ir.Barrier); ok {
			hasBarrier = true
		}
	}
	if !hasBarrier {
		t.Fatal("dsm_barrier not lowered")
	}
}

func TestParamDistBinding(t *testing.T) {
	f, err := fortran.Parse("t.f", `
      subroutine s(x, n)
      integer n
      real*8 x(100)
      x(1) = 0.0
      return
      end
`)
	if err != nil {
		t.Fatal(err)
	}
	spec := dist.Spec{Reshape: true, Dims: []dist.Dim{{Kind: dist.Block}}}
	u, errs := AnalyzeUnit("t.f", f.Units[0], Options{ParamDists: map[string]dist.Spec{"x": spec}})
	if errs.Err() != nil {
		t.Fatal(errs)
	}
	x := findSym(t, u, "x")
	if x.Dist == nil || !x.Dist.Reshape {
		t.Fatalf("param dist not bound: %+v", x.Dist)
	}
	// Mismatched rank must fail.
	bad := dist.Spec{Reshape: true, Dims: []dist.Dim{{Kind: dist.Block}, {Kind: dist.Star}}}
	_, errs = AnalyzeUnit("t.f", f.Units[0], Options{ParamDists: map[string]dist.Spec{"x": bad}})
	if errs.Err() == nil {
		t.Fatal("rank mismatch accepted")
	}
}

func TestAssignToLoopVarRejected(t *testing.T) {
	analyzeErr(t, `
      program p
      integer i
      do i = 1, 10
        i = 5
      end do
      end
`, "active do variable")
}

func TestSubscriptCountChecked(t *testing.T) {
	analyzeErr(t, `
      program p
      real*8 a(10, 10)
      a(1) = 0.0
      end
`, "2 dimensions, 1 subscripts")
}

func TestUnknownFunction(t *testing.T) {
	analyzeErr(t, `
      program p
      real*8 x
      x = frobnicate(1)
      end
`, "unknown function or array")
}

func TestCommonBlocks(t *testing.T) {
	units := analyze(t, `
      subroutine s
      real*8 a(10), b(20)
      common /blk/ a, b
      a(1) = 0.0
      return
      end
`)
	u := units[0]
	if len(u.CommonBlocks) != 1 || u.CommonBlocks[0].Name != "blk" {
		t.Fatalf("commons = %+v", u.CommonBlocks)
	}
	a := findSym(t, u, "a")
	if a.Common != "blk" || a.CommonIndex != 0 {
		t.Fatalf("a common = %q %d", a.Common, a.CommonIndex)
	}
	b := findSym(t, u, "b")
	if b.CommonIndex != 1 {
		t.Fatalf("b index = %d", b.CommonIndex)
	}
}

func TestAssumedSizeOnlyForDummies(t *testing.T) {
	analyzeErr(t, `
      program p
      real*8 a(*)
      a(1) = 0.0
      end
`, "assumed-size arrays must be dummy arguments")
}

func TestDynamicSchedLowering(t *testing.T) {
	units := analyze(t, `
      program p
      real*8 a(20)
      integer i
c$doacross local(i) shared(a) schedtype(dynamic, 3)
      do i = 1, 20
        a(i) = 0.0
      end do
c$doacross local(i) shared(a) schedtype(gss)
      do i = 1, 20
        a(i) = 0.0
      end do
      end
`)
	d0 := units[0].Body[0].(*ir.Do).Par
	if d0.Sched != ir.SchedDynamic || d0.Chunk == nil {
		t.Fatalf("dynamic par = %+v", d0)
	}
	d1 := units[0].Body[1].(*ir.Do).Par
	if d1.Sched != ir.SchedGSS {
		t.Fatalf("gss par = %+v", d1)
	}
}

func TestNestedDoacrossRejected(t *testing.T) {
	analyzeErr(t, `
      program p
      real*8 a(10,10)
      integer i, j
c$doacross local(i)
      do i = 1, 10
c$doacross local(j)
      do j = 1, 10
        a(j,i) = 0.0
      end do
      end do
      end
`, "nested doacross")
}

func TestRedistributeInsideParallelRejected(t *testing.T) {
	analyzeErr(t, `
      program p
      real*8 a(10)
c$distribute a(block)
      integer i
c$doacross local(i)
      do i = 1, 10
c$redistribute a(cyclic)
      end do
      end
`, "redistribute inside a parallel loop")
}

func TestTimerInsideParallelRejected(t *testing.T) {
	analyzeErr(t, `
      program p
      real*8 a(10)
      integer i
c$doacross local(i) shared(a)
      do i = 1, 10
        call dsm_timer_start
        a(i) = 0.0
      end do
      end
`, "must be called from serial code")
}
