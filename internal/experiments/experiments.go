// Package experiments regenerates every table and figure of the paper's
// evaluation (§8) on the scaled simulated Origin-2000:
//
//	Table 2  — effect of the reshape optimizations on LU, one processor
//	Figure 4 — NAS-LU speedups, four placement strategies
//	Figure 5 — matrix transpose speedups
//	Figure 6 — 2-D convolution (small input), one- and two-level
//	Figure 7 — 2-D convolution (large input), one- and two-level
//
// Sizes are scaled by machine.ScaleFactor relative to the paper (see
// DESIGN.md); the Quick preset further shrinks them for unit benchmarks.
// Absolute seconds are not comparable to the paper's testbed; the reported
// shapes (who wins, crossovers) are — EXPERIMENTS.md records both.
package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dsmdist/internal/core"
	"dsmdist/internal/exec"
	"dsmdist/internal/hostpool"
	"dsmdist/internal/machine"
	"dsmdist/internal/memsim"
	"dsmdist/internal/ospage"
	"dsmdist/internal/service"
	"dsmdist/internal/workloads"
	"dsmdist/internal/xform"
)

// Sizes parameterizes the experiment scale.
type Sizes struct {
	LUN, LUIters       int
	TransN, TransIters int
	ConvSmallN         int
	ConvLargeN         int
	ConvIters          int
	Procs              []int // processor counts for the figures
	// LUNodeFrac scales node memory for the LU runs so the dataset
	// exceeds one node, as in the paper (§8.1: 360 MB data vs ~250 MB
	// free per node => ratio 1.44).
	LUNodeFrac float64
	// Par bounds the host-side worker pool that runs sweep points
	// concurrently (0 = the shared hostpool budget, default GOMAXPROCS;
	// 1 = serial). Each point builds its own simulated machine, so Par
	// affects host wall time only: the rows — cycles, counters, order —
	// are bit-identical at any setting
	// (TestSweepDeterministicUnderParallelism). Sweep workers and the
	// parallel engine's region workers draw from the same budget, so the
	// two levels of host parallelism never oversubscribe the machine.
	Par int
	// Engine selects the host execution engine for every point (see
	// exec.Engine); rows are bit-identical across engines.
	Engine exec.Engine
	// Tier pins the bytecode interpreter for every point. No command
	// sets it; bench/ does, to take its sweeps on a stated tier (see
	// exec.Tier). Rows are bit-identical across tiers.
	Tier exec.Tier
	// Progress, when non-nil, receives a live progress line per sweep
	// (points done/total, compile-cache hits, ETA) and an early report of
	// the lowest-index failing point. Host-side reporting only: it never
	// changes the rows. dsmbench -progress points it at stderr.
	Progress io.Writer
	// Remote, when non-nil, ships each sweep to a dsmd service as one
	// batch submission instead of simulating locally (dsmbench -remote).
	// Determinism makes the rows identical to local ones except WallMS,
	// and a warm service cache turns a repeat sweep into zero new
	// simulations. Only sweeps over plain machine presets are remotable:
	// table2/fig4 customize node memory (luMachine), and the redist
	// experiment needs a local recorder, so they reject Remote.
	Remote *service.Client
}

// Full is the scale used by cmd/dsmbench (paper sizes / ScaleFactor).
func Full() Sizes {
	return Sizes{
		LUN: 40, LUIters: 1,
		TransN: 1024, TransIters: 3,
		ConvSmallN: 256, ConvLargeN: 1024, ConvIters: 1,
		Procs:      []int{1, 2, 4, 8, 16, 32, 48, 64, 80, 96},
		LUNodeFrac: 1.44,
	}
}

// Quick is a fast preset for go test benchmarks and smoke runs.
func Quick() Sizes {
	return Sizes{
		LUN: 16, LUIters: 1,
		TransN: 256, TransIters: 1,
		ConvSmallN: 96, ConvLargeN: 192, ConvIters: 1,
		Procs:      []int{1, 4, 16},
		LUNodeFrac: 1.44,
	}
}

// Row is one measured point. The JSON field names are the machine-readable
// interface of dsmbench -json; keep them stable, and bump V when the
// schema changes incompatibly.
type Row struct {
	// V is the row schema version (currently 1), the same convention as
	// dsmrun -json and the dsmd API documents.
	V       int     `json:"v"`
	Exp     string  `json:"exp"`
	Variant string  `json:"variant"`
	P       int     `json:"p"`
	Cycles  int64   `json:"cycles"`
	Seconds float64 `json:"seconds"`
	Speedup float64 `json:"speedup"`
	L2Miss  int64   `json:"l2_miss"`
	Remote  int64   `json:"l2_miss_remote"`
	TLBPct  float64 `json:"tlb_pct"` // fraction of time in TLB refill
	HwDiv   int64   `json:"hw_div"`
	SoftDiv int64   `json:"soft_div"`
	// Instrs counts bytecode instructions executed across all threads —
	// a pure simulated quantity (identical across engines and tiers) that
	// also anchors host-throughput numbers (instrs / wall_ms).
	Instrs int64 `json:"instrs"`
	// RedistCyc is the wall-clock cycles spent inside c$redistribute
	// (only the redist experiment measures it; 0 elsewhere).
	RedistCyc int64 `json:"redist_cyc,omitempty"`
	// Stats aggregates the per-processor memory-system counters over the
	// whole run (not just the timed section).
	Stats memsim.ProcStats `json:"stats"`
	// WallMS is the host wall-clock time spent building and running this
	// point, in milliseconds. It describes the harness, not the simulated
	// machine, varies from run to run, and must be ignored when comparing
	// rows for determinism.
	WallMS float64 `json:"wall_ms"`
}

// variantRun describes one line of a figure.
type variantRun struct {
	label   string
	variant workloads.Variant
	policy  ospage.Policy
	opt     xform.Options
}

// figureVariants are the four placement strategies every figure compares.
func figureVariants() []variantRun {
	return []variantRun{
		{"first-touch", workloads.Plain, ospage.FirstTouch, xform.O3()},
		{"round-robin", workloads.Plain, ospage.RoundRobin, xform.O3()},
		{"regular", workloads.Regular, ospage.FirstTouch, xform.O3()},
		{"reshaped", workloads.Reshaped, ospage.FirstTouch, xform.O3()},
	}
}

// runOne builds and runs one configuration. The cache (shared across a
// sweep, may be nil) deduplicates compiles of identical (source, options)
// variants; every call still loads and runs its own image.
func runOne(cache *core.BuildCache, src string, opt xform.Options, cfg *machine.Config,
	policy ospage.Policy, eng exec.Engine, tier exec.Tier) (*exec.Result, error) {
	tc := core.NewAt(opt)
	tc.RuntimeChecks = false // measurement runs, as in the paper
	tc.Cache = cache
	img, err := tc.Build(map[string]string{"bench.f": src})
	if err != nil {
		return nil, err
	}
	return core.Run(img, cfg, core.RunOptions{Policy: policy, Engine: eng, Tier: tier})
}

// ForEach runs jobs 0..n-1 over a bounded host worker set. The caller's
// goroutine is always one worker; extra workers are drawn from the shared
// hostpool budget (default GOMAXPROCS), the same budget the parallel
// execution engine draws region workers from — so sweep-level and
// engine-level host parallelism compose without oversubscribing the
// machine. par > 0 additionally caps this job's draw (1 = strictly
// serial); par <= 0 takes whatever the budget allows. Results must be
// written to preallocated per-index slots so output order never depends on
// scheduling; the error returned is the one from the lowest-numbered
// failing job, which keeps error reporting deterministic too. The sweeps
// here and the advisor's candidate verification both fan out through it.
func ForEach(par, n int, job func(int) error) error {
	return ForEachProgress(par, n, job, nil)
}

// ForEachProgress is ForEach with a completion callback and early stop.
// onDone (nil to skip) is invoked after every job with its index and
// error, from whichever worker ran it — callbacks synchronize internally
// (Meter does). Once any job fails, workers stop claiming new indices and
// only drain what is already in flight, so the returned error surfaces
// without running the rest of the sweep. The lowest-index guarantee
// survives the early stop: indices are claimed in increasing order, so by
// the time any job fails, every lower-index job has been claimed and will
// record its own outcome before the final scan.
func ForEachProgress(par, n int, job func(int) error, onDone func(int, error)) error {
	want := n - 1
	if par > 0 && par-1 < want {
		want = par - 1
	}
	extras := 0
	if want > 0 {
		extras = hostpool.Acquire(want)
		defer hostpool.Release(extras)
	}
	if extras == 0 {
		for i := 0; i < n; i++ {
			err := job(i)
			if onDone != nil {
				onDone(i, err)
			}
			if err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	next := int64(-1)
	var failed atomic.Bool
	work := func() {
		for !failed.Load() {
			i := int(atomic.AddInt64(&next, 1))
			if i >= n {
				return
			}
			err := job(i)
			errs[i] = err
			if onDone != nil {
				onDone(i, err)
			}
			if err != nil {
				failed.Store(true)
			}
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < extras; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// measured returns the region-of-interest cycles (the dsm_timer section
// when present, NAS-style; total cycles otherwise).
func measured(res *exec.Result) int64 {
	if res.TimerCycles > 0 {
		return res.TimerCycles
	}
	return res.Cycles
}

func rowFrom(exp, variant string, p int, cfg *machine.Config, res *exec.Result, base int64) Row {
	r := Row{
		V:   1,
		Exp: exp, Variant: variant, P: p,
		Cycles:  measured(res),
		Seconds: cfg.Seconds(res.Cycles),
		L2Miss:  res.Total.L2Miss,
		Remote:  res.Total.L2MissRemote,
		HwDiv:   res.HwDiv,
		SoftDiv: res.SoftDiv,
		Instrs:  res.Instrs,
		Stats:   res.Total,
	}
	r.Seconds = cfg.Seconds(r.Cycles)
	if r.Cycles > 0 {
		r.TLBPct = float64(res.Total.TLBCyc) / float64(r.Cycles*int64(p))
	}
	if base > 0 {
		r.Speedup = float64(base) / float64(r.Cycles)
	}
	return r
}

// luMachine builds the machine for LU runs with the node-capacity ratio.
func luMachine(s Sizes, p int) *machine.Config {
	cfg := machine.Scaled(p)
	data := int64(2) * 5 * int64(s.LUN) * int64(s.LUN) * int64(s.LUN) * 8
	node := int(float64(data) / s.LUNodeFrac)
	if node < 4*cfg.PageBytes {
		node = 4 * cfg.PageBytes
	}
	cfg.NodeMemBytes = node
	return cfg
}

// Table2 reproduces the reshape-optimization ablation (§8, Table 2): LU on
// one processor with reshaping at increasing optimization levels, against
// the original code without reshaping.
func Table2(s Sizes) ([]Row, error) {
	src := func(v workloads.Variant) string { return workloads.LU(s.LUN, s.LUIters, v) }
	cfg := func() *machine.Config { return luMachine(s, 1) }
	if s.Remote != nil {
		return nil, fmt.Errorf("table2: not runnable via -remote (luMachine customizes node memory, which a job spec cannot express)")
	}
	steps := []struct {
		label string
		v     workloads.Variant
		opt   xform.Options
	}{
		{"reshape, no optimizations", workloads.Reshaped, xform.O0()},
		{"reshape, tile and peel", workloads.Reshaped, xform.O1()},
		{"reshape, tile and peel, hoist", workloads.Reshaped, xform.O2()},
		{"reshape, all optimizations", workloads.Reshaped, xform.O3()},
		{"original without reshaping", workloads.Plain, xform.O3()},
	}
	cache := core.NewBuildCache()
	rows := make([]Row, len(steps))
	meter, onDone := meterFor(s, "table2", len(steps), cache)
	err := ForEachProgress(s.Par, len(steps), func(i int) error {
		st := steps[i]
		t0 := time.Now()
		res, err := runOne(cache, src(st.v), st.opt, cfg(), ospage.FirstTouch, s.Engine, s.Tier)
		if err != nil {
			return fmt.Errorf("table2 %s: %w", st.label, err)
		}
		rows[i] = rowFrom("table2", st.label, 1, cfg(), res, 0)
		rows[i].WallMS = float64(time.Since(t0)) / float64(time.Millisecond)
		return nil
	}, onDone)
	if meter != nil {
		meter.Finish()
	}
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// Fig4 reproduces the NAS-LU speedup curves.
func Fig4(s Sizes) ([]Row, error) {
	return sweep("fig4", "",
		func(v workloads.Variant) string { return workloads.LU(s.LUN, s.LUIters, v) },
		s, func(p int) *machine.Config { return luMachine(s, p) })
}

// Fig5 reproduces the matrix-transpose speedup curves.
func Fig5(s Sizes) ([]Row, error) {
	return sweep("fig5", "scaled",
		func(v workloads.Variant) string { return workloads.Transpose(s.TransN, s.TransIters, v) },
		s, func(p int) *machine.Config { return machine.Scaled(p) })
}

// Fig6 reproduces the small-input 2-D convolution, one- and two-level.
func Fig6(s Sizes) ([]Row, error) {
	r1, err := sweep("fig6-1level", "scaled",
		func(v workloads.Variant) string { return workloads.Convolution(s.ConvSmallN, s.ConvIters, 1, v) },
		s, func(p int) *machine.Config { return machine.Scaled(p) })
	if err != nil {
		return nil, err
	}
	r2, err := sweep("fig6-2level", "scaled",
		func(v workloads.Variant) string { return workloads.Convolution(s.ConvSmallN, s.ConvIters, 2, v) },
		s, func(p int) *machine.Config { return machine.Scaled(p) })
	if err != nil {
		return nil, err
	}
	return append(r1, r2...), nil
}

// Fig7 reproduces the large-input 2-D convolution, one- and two-level.
func Fig7(s Sizes) ([]Row, error) {
	r1, err := sweep("fig7-1level", "scaled",
		func(v workloads.Variant) string { return workloads.Convolution(s.ConvLargeN, s.ConvIters, 1, v) },
		s, func(p int) *machine.Config { return machine.Scaled(p) })
	if err != nil {
		return nil, err
	}
	r2, err := sweep("fig7-2level", "scaled",
		func(v workloads.Variant) string { return workloads.Convolution(s.ConvLargeN, s.ConvIters, 2, v) },
		s, func(p int) *machine.Config { return machine.Scaled(p) })
	if err != nil {
		return nil, err
	}
	return append(r1, r2...), nil
}

// sweep runs the four placement variants across the processor list, fanning
// the points out over a bounded worker pool (Sizes.Par). Every point builds
// its own machine/runtime, so points are independent; a sweep-wide compile
// cache deduplicates the per-variant compiles. Rows come back in the fixed
// variant-major, processor-minor order regardless of parallelism. preset
// names the machine preset when mkCfg is one ("" when it is not — such
// sweeps cannot be expressed as remote job specs and reject Sizes.Remote).
func sweep(exp, preset string, gen func(workloads.Variant) string, s Sizes,
	mkCfg func(int) *machine.Config) ([]Row, error) {

	if s.Remote != nil {
		if preset == "" {
			return nil, fmt.Errorf("%s: not runnable via -remote (its machine is customized beyond a preset, which a job spec cannot express)", exp)
		}
		return remoteSweep(exp, preset, gen, s, mkCfg)
	}
	cache := core.NewBuildCache()
	baseCfg := mkCfg(1)
	baseRes, err := runOne(cache, gen(workloads.Serial), xform.O3(), baseCfg, ospage.FirstTouch, s.Engine, s.Tier)
	if err != nil {
		return nil, fmt.Errorf("%s serial baseline: %w", exp, err)
	}
	base := measured(baseRes)

	type point struct {
		vr variantRun
		p  int
	}
	var points []point
	for _, vr := range figureVariants() {
		for _, p := range s.Procs {
			points = append(points, point{vr, p})
		}
	}
	rows := make([]Row, len(points))
	meter, onDone := meterFor(s, exp, len(points), cache)
	err = ForEachProgress(s.Par, len(points), func(i int) error {
		pt := points[i]
		cfg := mkCfg(pt.p)
		t0 := time.Now()
		res, err := runOne(cache, gen(pt.vr.variant), pt.vr.opt, cfg, pt.vr.policy, s.Engine, s.Tier)
		if err != nil {
			return fmt.Errorf("%s %s P=%d: %w", exp, pt.vr.label, pt.p, err)
		}
		rows[i] = rowFrom(exp, pt.vr.label, pt.p, cfg, res, base)
		rows[i].WallMS = float64(time.Since(t0)) / float64(time.Millisecond)
		return nil
	}, onDone)
	if meter != nil {
		meter.Finish()
	}
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// Print renders rows as an aligned table.
func Print(w io.Writer, rows []Row) {
	if len(rows) == 0 {
		return
	}
	fmt.Fprintf(w, "%-14s %-32s %5s %14s %10s %9s %12s %12s %7s\n",
		"experiment", "variant", "P", "cycles", "seconds", "speedup", "L2miss", "remote", "tlb%")
	for _, r := range rows {
		fmt.Fprintf(w, "%-14s %-32s %5d %14d %10.4f %9.2f %12d %12d %6.1f%%\n",
			r.Exp, r.Variant, r.P, r.Cycles, r.Seconds, r.Speedup, r.L2Miss, r.Remote, r.TLBPct*100)
	}
}

// WriteJSON emits rows as indented JSON — the machine-readable counterpart
// of Print, used by dsmbench -json.
func WriteJSON(w io.Writer, rows []Row) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rows)
}

// Summary extracts per-variant best speedups (EXPERIMENTS.md fodder).
func Summary(rows []Row) string {
	best := map[string]Row{}
	var order []string
	for _, r := range rows {
		key := r.Exp + "/" + r.Variant
		if cur, ok := best[key]; !ok || r.Speedup > cur.Speedup {
			if !ok {
				order = append(order, key)
			}
			best[key] = r
		}
	}
	var b strings.Builder
	for _, k := range order {
		r := best[k]
		fmt.Fprintf(&b, "%s: best speedup %.2fx at P=%d\n", k, r.Speedup, r.P)
	}
	return b.String()
}
