package rtl

import (
	"strings"
	"testing"

	"dsmdist/internal/dist"
	"dsmdist/internal/ir"
	"dsmdist/internal/link"
	"dsmdist/internal/machine"
	"dsmdist/internal/obj"
	"dsmdist/internal/ospage"
	"dsmdist/internal/xform"
)

// loadSrc builds a program and loads it on a Tiny machine.
func loadSrc(t *testing.T, src string, nprocs int, policy ospage.Policy) *Runtime {
	t.Helper()
	o, err := obj.Compile("t.f", src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	img, err := link.Link([]*obj.Object{o}, link.Config{Opt: xform.O3(), RuntimeChecks: true})
	if err != nil {
		t.Fatalf("link: %v", err)
	}
	rt, err := Load(img.Res, machine.Tiny(nprocs), policy)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	return rt
}

const loaderSrc = `
      program p
      integer n
      parameter (n = 64)
      real*8 a(n), b(n, n), c(n)
c$distribute_reshape a(block)
c$distribute b(*, block)
      a(1) = 0.0
      b(1, 1) = 0.0
      c(1) = 0.0
      end
`

func TestDescriptorContents(t *testing.T) {
	rt := loadSrc(t, loaderSrc, 4, ospage.FirstTouch)
	st := rt.ArrayByName("p", "a")
	if st == nil || st.DescAddr == 0 {
		t.Fatal("descriptor missing")
	}
	// N=64, P=4, B=16, ML=16 for block over 4 procs.
	rd := func(f int64) int64 { return int64(rt.Sys.Peek(st.DescAddr + f*8)) }
	if rd(0) != 64 || rd(1) != 4 || rd(2) != 16 || rd(4) != 16 {
		t.Fatalf("descriptor = N=%d P=%d B=%d K=%d ML=%d", rd(0), rd(1), rd(2), rd(3), rd(4))
	}
}

// TestDescriptorWordsPerKind pins the five words generated code reads, for
// one dimension of each specifier: B and K are the per-kind closed-form
// operands (block size or N; declared chunk or 1), not dist's normal-form
// chunk.
func TestDescriptorWordsPerKind(t *testing.T) {
	rt := loadSrc(t, `
      program p
      real*8 a(10), b(10), c(10), d(10, 10), e(10)
c$distribute_reshape a(block), b(cyclic), c(cyclic(3))
c$distribute d(*, block), e(cyclic(1000))
      a(1) = 0.0
      b(1) = 0.0
      c(1) = 0.0
      d(1, 1) = 0.0
      e(1) = 0.0
      end
`, 4, ospage.FirstTouch)
	for _, tc := range []struct {
		name string
		dim  int
		want [5]int64 // N, P, B, K, ML
	}{
		{"a", 0, [5]int64{10, 4, 3, 1, 3}},
		{"b", 0, [5]int64{10, 4, 10, 1, 3}},
		{"c", 0, [5]int64{10, 4, 10, 3, 3}},
		{"d", 0, [5]int64{10, 1, 10, 1, 10}},
		{"d", 1, [5]int64{10, 4, 3, 1, 3}},
		{"e", 0, [5]int64{10, 4, 10, 1000, 10}},
	} {
		st := rt.ArrayByName("p", tc.name)
		var got [5]int64
		for f := range got {
			got[f] = int64(rt.Sys.Peek(st.DescAddr + int64(tc.dim*ir.DescFields+f)*8))
		}
		if got != tc.want {
			t.Errorf("%s dim %d: descriptor N/P/B/K/ML = %v, want %v", tc.name, tc.dim+1, got, tc.want)
		}
	}
}

func TestPortionsAreLocal(t *testing.T) {
	rt := loadSrc(t, loaderSrc, 4, ospage.FirstTouch)
	st := rt.ArrayByName("p", "a")
	if len(st.Portions) != 4 {
		t.Fatalf("portions = %d", len(st.Portions))
	}
	for p, base := range st.Portions {
		node := rt.Pages.NodeOf(base)
		if node != rt.Cfg.NodeOf(p) {
			t.Errorf("portion %d on node %d, want %d", p, node, rt.Cfg.NodeOf(p))
		}
	}
}

func TestRegularPlacement(t *testing.T) {
	rt := loadSrc(t, loaderSrc, 4, ospage.FirstTouch)
	st := rt.ArrayByName("p", "b") // (*,block): column blocks of 16 columns
	if st.Base == 0 {
		t.Fatal("regular array has no base")
	}
	// Column block owned by proc p starts at column p*16; its first
	// byte's page must be on p's node (columns are 64*8=512B, page 256B
	// on Tiny, so interior pages are single-owner).
	colBytes := int64(64 * 8)
	for p := 0; p < 4; p++ {
		addr := st.Base + int64(p)*16*colBytes + 256 // interior of the portion
		if got := rt.Pages.NodeOf(addr); got != rt.Cfg.NodeOf(p) {
			t.Errorf("proc %d portion page on node %d, want %d", p, got, rt.Cfg.NodeOf(p))
		}
	}
}

func TestGatherScatterRoundTrip(t *testing.T) {
	rt := loadSrc(t, loaderSrc, 4, ospage.FirstTouch)
	for _, name := range []string{"a", "b", "c"} {
		st := rt.ArrayByName("p", name)
		n := st.TotalElems()
		data := make([]float64, n)
		for i := range data {
			data[i] = float64(i) * 1.5
		}
		rt.Scatter(st, data)
		got := rt.Gather(st)
		for i := range data {
			if got[i] != data[i] {
				t.Fatalf("%s[%d] = %v, want %v", name, i, got[i], data[i])
			}
		}
	}
}

func TestElemAddrMatchesTable1(t *testing.T) {
	rt := loadSrc(t, loaderSrc, 4, ospage.FirstTouch)
	st := rt.ArrayByName("p", "a") // block over 4 procs, b=16
	// Element 20 (zero-based) is owned by proc 1 at offset 4.
	addr := rt.ElemAddr(st, []int{20})
	want := st.Portions[1] + 4*8
	if addr != want {
		t.Fatalf("ElemAddr = %#x, want %#x", addr, want)
	}
}

func TestDenseExtent(t *testing.T) {
	src := `
      program p
      real*8 a(100), b(100)
c$distribute_reshape a(cyclic(5)), b(block)
      a(1) = 0.0
      b(1) = 0.0
      end
`
	rt := loadSrc(t, src, 4, ospage.FirstTouch)
	a := rt.ArrayByName("p", "a")
	// At a chunk start: 5 elements allowed.
	if got := rt.denseExtent(a, a.Portions[0]); got != 5*8 {
		t.Fatalf("cyclic(5) chunk start extent = %d, want 40", got)
	}
	// Two elements into a chunk: 3 remain.
	if got := rt.denseExtent(a, a.Portions[0]+2*8); got != 3*8 {
		t.Fatalf("mid-chunk extent = %d, want 24", got)
	}
	b := rt.ArrayByName("p", "b")
	// Block: dense to the end of the portion (25 elements).
	if got := rt.denseExtent(b, b.Portions[0]); got != 25*8 {
		t.Fatalf("block extent = %d, want 200", got)
	}
	if got := rt.denseExtent(b, b.Portions[0]+20*8); got != 5*8 {
		t.Fatalf("block tail extent = %d, want 40", got)
	}
	// Address outside any portion.
	if got := rt.denseExtent(b, 64); got != 0 {
		t.Fatalf("bogus address extent = %d", got)
	}
}

func TestStacksAreLocalAndDistinct(t *testing.T) {
	rt := loadSrc(t, loaderSrc, 4, ospage.FirstTouch)
	seen := map[int64]bool{}
	for p := 0; p < 4; p++ {
		if seen[rt.StackBase[p]] {
			t.Fatal("stacks overlap")
		}
		seen[rt.StackBase[p]] = true
		if got := rt.Pages.NodeOf(rt.StackBase[p]); got != rt.Cfg.NodeOf(p) {
			t.Errorf("stack %d on node %d, want %d", p, got, rt.Cfg.NodeOf(p))
		}
	}
}

func TestGridRespectsProcCount(t *testing.T) {
	// The same image loaded with different processor counts gets
	// different grids (the paper: "the same executable [can] run with
	// different number of processors").
	for _, np := range []int{1, 2, 8} {
		rt := loadSrc(t, loaderSrc, np, ospage.FirstTouch)
		st := rt.ArrayByName("p", "a")
		if st.Grid.Used != np {
			t.Fatalf("np=%d: grid uses %d procs", np, st.Grid.Used)
		}
		if len(st.Portions) != np {
			t.Fatalf("np=%d: %d portions", np, len(st.Portions))
		}
	}
}

func TestCheckErrorMessage(t *testing.T) {
	e := &CheckError{Msg: "boom"}
	if !strings.Contains(e.Error(), "runtime check") {
		t.Fatal("error prefix missing")
	}
}

func TestSpecString(t *testing.T) {
	// sanity: the dist spec in a loaded plan prints usefully
	rt := loadSrc(t, loaderSrc, 2, ospage.FirstTouch)
	st := rt.ArrayByName("p", "a")
	if st.Plan.Spec == nil || st.Plan.Spec.Dims[0].Kind != dist.Block {
		t.Fatalf("plan spec = %+v", st.Plan.Spec)
	}
}

func TestTrafficAttribution(t *testing.T) {
	rt := loadSrc(t, loaderSrc, 2, ospage.FirstTouch)
	a := rt.ArrayByName("p", "a") // reshaped
	b := rt.ArrayByName("p", "b") // regular static
	// Stream through b only; its traffic must exceed a's.
	for i := int64(0); i < b.TotalElems(); i++ {
		rt.Sys.LoadWord(0, b.Base+i*8)
	}
	if rt.Traffic(b) == 0 {
		t.Fatal("no traffic attributed to b")
	}
	if rt.Traffic(a) >= rt.Traffic(b) {
		t.Fatalf("a traffic %d >= b traffic %d", rt.Traffic(a), rt.Traffic(b))
	}
	// Now stream a's portions.
	before := rt.Traffic(a)
	for _, base := range a.Portions {
		for off := int64(0); off < a.PortionBytes; off += 8 {
			rt.Sys.LoadWord(1, base+off)
		}
	}
	if rt.Traffic(a) <= before {
		t.Fatal("portion traffic not attributed")
	}
}
