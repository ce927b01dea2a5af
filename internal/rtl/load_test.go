package rtl

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"slices"
	"strings"
	"testing"

	"dsmdist/internal/codegen"
	"dsmdist/internal/dist"
	"dsmdist/internal/link"
	"dsmdist/internal/machine"
	"dsmdist/internal/memsim"
	"dsmdist/internal/obj"
	"dsmdist/internal/ospage"
	"dsmdist/internal/workloads"
	"dsmdist/internal/xform"
)

// buildRes compiles and links named sources at O3 with runtime checks, the
// configuration the sweeps and dsmd load.
func buildRes(tb testing.TB, names []string, srcs []string) *codegen.Result {
	tb.Helper()
	objs := make([]*obj.Object, len(srcs))
	for i, src := range srcs {
		o, err := obj.Compile(names[i], src)
		if err != nil {
			tb.Fatalf("compile %s: %v", names[i], err)
		}
		objs[i] = o
	}
	img, err := link.Link(objs, link.Config{Opt: xform.O3(), RuntimeChecks: true})
	if err != nil {
		tb.Fatalf("link: %v", err)
	}
	return img.Res
}

// BenchmarkLoadObs is the calibrated microbench of the standing benchmark's
// rtl.load_ms row: one load of the fig. 5 transpose (n = 512) on the scaled
// machine, the point transpose_sweep and dsmd_cold load most often.
func BenchmarkLoadObs(b *testing.B) {
	for _, v := range []workloads.Variant{workloads.Plain, workloads.Reshaped} {
		res := buildRes(b, []string{"t.f"}, []string{workloads.Transpose(512, 2, v)})
		for _, p := range []int{16, 64} {
			b.Run(fmt.Sprintf("%s/p%d", v, p), func(b *testing.B) {
				b.ReportAllocs()
				var brk int64
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					r := res.Clone() // loading patches the image in place
					b.StartTimer()
					rt, err := LoadObs(r, machine.Scaled(p), ospage.FirstTouch, nil)
					if err != nil {
						b.Fatal(err)
					}
					brk = rt.Sys.Brk()
				}
				b.ReportMetric(float64(brk), "brk-bytes")
			})
		}
	}
}

// referenceLoad replays the allocation order of the loader this one
// replaced — one un-reserved Alloc per symbol, per stack and per exhausted
// pool, interleaved with nothing — and returns what it handed out. It is the
// oracle the planned layout is held to.
func referenceLoad(t *testing.T, res *codegen.Result, cfg *machine.Config) (syms, stacks []int64, portions [][]int64, brk int64) {
	t.Helper()
	sys, err := memsim.New(cfg, ospage.New(cfg))
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range res.Prog.Syms {
		n := s.Bytes
		if n <= 0 {
			n = 8
		}
		syms = append(syms, sys.Alloc(n, s.Align))
	}
	pb := int64(cfg.PageBytes)
	for p := 0; p < cfg.NProcs; p++ {
		stacks = append(stacks, sys.Alloc(StackBytes, pb))
	}
	type span struct{ cur, end int64 }
	pools := make([]span, cfg.NProcs)
	for _, plan := range res.Arrays {
		if plan.Spec == nil || !plan.Spec.Reshape {
			portions = append(portions, nil)
			continue
		}
		grid, err := dist.NewGrid(*plan.Spec, cfg.NProcs)
		if err != nil {
			t.Fatal(err)
		}
		dims := make([]int, len(plan.Dims))
		for i, d := range plan.Dims {
			dims[i] = int(d)
		}
		maps, err := grid.Maps(dims)
		if err != nil {
			t.Fatal(err)
		}
		per := int64(8)
		for _, m := range maps {
			per *= int64(m.MaxPortionLen())
		}
		var out []int64
		for p := 0; p < grid.Used; p++ {
			pl := &pools[p]
			if pl.cur+per > pl.end {
				chunk := (per + pb - 1) / pb * pb
				if chunk < 16*pb {
					chunk = 16 * pb
				}
				pl.cur = sys.Alloc(chunk, pb)
				pl.end = pl.cur + chunk
			}
			out = append(out, pl.cur)
			pl.cur += per
		}
		portions = append(portions, out)
	}
	return syms, stacks, portions, sys.Brk()
}

// checkLoadLayout loads res and holds the result to the plan and to the
// reference loader: same heap top, same address for every symbol, stack and
// portion.
func checkLoadLayout(t *testing.T, res *codegen.Result, cfg *machine.Config) {
	t.Helper()
	rsyms, rstacks, rportions, rbrk := referenceLoad(t, res, cfg)
	rt, err := Load(res.Clone(), cfg, ospage.FirstTouch)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	lay, err := planLoad(res, cfg, int64(cfg.PageBytes))
	if err != nil {
		t.Fatalf("plan: %v", err)
	}
	if got := rt.Sys.Brk(); got != lay.brk || got != rbrk {
		t.Errorf("brk: loaded %d, planned %d, reference %d", got, lay.brk, rbrk)
	}
	syms := make([]int64, len(rt.Prog.Syms))
	for i, s := range rt.Prog.Syms {
		syms[i] = s.Addr
	}
	if !slices.Equal(syms, lay.syms) || !slices.Equal(syms, rsyms) {
		t.Errorf("symbols: loaded %v, planned %v, reference %v", syms, lay.syms, rsyms)
	}
	if !slices.Equal(rt.StackBase, lay.stacks) || !slices.Equal(rt.StackBase, rstacks) {
		t.Errorf("stacks: loaded %v, planned %v, reference %v", rt.StackBase, lay.stacks, rstacks)
	}
	for i, st := range rt.Arrays {
		if !slices.Equal(st.Portions, lay.arrays[i].Portions) || !slices.Equal(st.Portions, rportions[i]) {
			t.Errorf("%s.%s portions: loaded %v, planned %v, reference %v",
				st.Plan.Unit, st.Plan.Name, st.Portions, lay.arrays[i].Portions, rportions[i])
		}
	}
}

func TestLoadLayoutMatchesPlan(t *testing.T) {
	procs := []int{1, 4, 16, 64}
	variants := []workloads.Variant{workloads.Serial, workloads.Plain, workloads.Regular, workloads.Reshaped}
	gens := map[string]func(workloads.Variant) string{
		"lu":        func(v workloads.Variant) string { return workloads.LU(12, 1, v) },
		"transpose": func(v workloads.Variant) string { return workloads.Transpose(96, 1, v) },
		"conv1":     func(v workloads.Variant) string { return workloads.Convolution(96, 1, 1, v) },
		"conv2":     func(v workloads.Variant) string { return workloads.Convolution(96, 1, 2, v) },
	}
	for name, gen := range gens {
		for _, v := range variants {
			res := buildRes(t, []string{name + ".f"}, []string{gen(v)})
			for _, p := range procs {
				t.Run(fmt.Sprintf("%s/%s/p%d", name, v, p), func(t *testing.T) {
					checkLoadLayout(t, res, machine.Scaled(p))
				})
			}
		}
	}

	files := map[string][]string{
		"quick":          {"../../examples/fortran/quick.f"},
		"redistribute":   {"../../examples/fortran/redistribute.f"},
		"transp_plain":   {"../../examples/fortran/transp_plain.f"},
		"transp_reshape": {"../../examples/fortran/transp_reshape.f"},
		"clone3":         {"testdata/clone3/main.f", "testdata/clone3/lib.f", "testdata/clone3/util.f"},
	}
	for name, paths := range files {
		srcs := make([]string, len(paths))
		for i, path := range paths {
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			srcs[i] = string(b)
		}
		res := buildRes(t, paths, srcs)
		for _, p := range procs {
			t.Run(fmt.Sprintf("%s/p%d", name, p), func(t *testing.T) {
				checkLoadLayout(t, res, machine.Scaled(p))
			})
		}
	}
}

// TestLoadAllocatesOnce pins "one load = one backing store": everything a
// load allocates — heap, directory, miss counters, caches, page tables —
// stays within 1.6 × the heap (the loader it replaced: 6.2–7.3 ×).
func TestLoadAllocatesOnce(t *testing.T) {
	for _, v := range []workloads.Variant{workloads.Plain, workloads.Reshaped} {
		res := buildRes(t, []string{"t.f"}, []string{workloads.Transpose(512, 2, v)})
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		rt, err := Load(res, machine.Scaled(64), ospage.FirstTouch)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		got, brk := after.TotalAlloc-before.TotalAlloc, uint64(rt.Sys.Brk())
		if got > brk*16/10 {
			t.Errorf("%s: load allocated %d bytes for a %d-byte heap (%.2f×, want <= 1.6×)", v, got, brk, float64(got)/float64(brk))
		}
	}
}

func TestLoadRejectsOversizedImage(t *testing.T) {
	res := buildRes(t, []string{"big.f"}, []string{`
      program big
      real*8 x(2000000000)
      x(1) = 1.0
      end
`})
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := Load(res, machine.Scaled(4), ospage.FirstTouch)
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "rtl: image needs 160000") || !strings.Contains(err.Error(), "(limit 4294967296)") {
		t.Fatalf("err = %v, want the image-needs diagnostic", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
		t.Errorf("refused load allocated %d bytes", got)
	}

	// A reshaped array has no data symbol: its pools are what runs over.
	res = buildRes(t, []string{"big.f"}, []string{`
      program big
      real*8 x(2000000000)
c$distribute_reshape x(block)
      x(1) = 1.0
      end
`})
	if _, err := Load(res, machine.Scaled(4), ospage.FirstTouch); err == nil || !strings.Contains(err.Error(), "image needs") {
		t.Fatalf("reshaped: err = %v, want the image-needs diagnostic", err)
	}
}

// TestLoadRejectsMalformedImage feeds the planner what only a crafted .img
// can contain; each must be an error, not a normalised value or a panic.
func TestLoadRejectsMalformedImage(t *testing.T) {
	cases := map[string]func(r *codegen.Result){
		"negative size":      func(r *codegen.Result) { r.Prog.Syms[1].Bytes = -8 },
		"size past int64":    func(r *codegen.Result) { r.Prog.Syms[1].Bytes = math.MaxInt64 },
		"alignment not 2^k":  func(r *codegen.Result) { r.Prog.Syms[1].Align = 24 },
		"negative alignment": func(r *codegen.Result) { r.Prog.Syms[1].Align = -8 },
		"negative extent":    func(r *codegen.Result) { r.Arrays[0].Dims = []int64{-64} },
		"extents overflow":   func(r *codegen.Result) { r.Arrays[0].Dims = []int64{1 << 40, 1 << 40} },
		"array past symbol":  func(r *codegen.Result) { r.Arrays[1].Dims = []int64{64, 65} },
		"negative offset":    func(r *codegen.Result) { r.Arrays[1].DataOffset = -8 },
		"symbol out of range": func(r *codegen.Result) {
			r.Arrays[1].DataSym = len(r.Prog.Syms)
		},
	}
	base := buildRes(t, []string{"t.f"}, []string{loaderSrc})
	if _, err := Load(base.Clone(), machine.Tiny(4), ospage.FirstTouch); err != nil {
		t.Fatalf("unmodified image: %v", err)
	}
	for name, corrupt := range cases {
		res := base.Clone()
		// Clone shares plan Dims with the cached image; corrupt copies.
		for _, a := range res.Arrays {
			a.Dims = append([]int64(nil), a.Dims...)
		}
		corrupt(res)
		if _, err := Load(res, machine.Tiny(4), ospage.FirstTouch); err == nil || !strings.HasPrefix(err.Error(), "rtl: ") {
			t.Errorf("%s: err = %v, want an rtl error", name, err)
		}
	}
}
