package main

import (
	"fmt"
	"runtime"
	"time"

	"dsmdist/internal/core"
	"dsmdist/internal/exec"
	"dsmdist/internal/experiments"
	"dsmdist/internal/hostpool"
	"dsmdist/internal/machine"
	"dsmdist/internal/ospage"
	"dsmdist/internal/workloads"
	"dsmdist/internal/xform"
)

// The four simulator workloads. The three sweeps run the experiment
// harness (experiments.Table2/Fig5/Fig7) untraced and the same points stage
// by stage when traced; engine_auto runs four single points through the
// engine and worker budget a dsmrun or dsmd job gets.

// simScale is the size of one simulator workload at one scale.
type simScale struct {
	luN                int
	transN, transIters int
	transProcs         []int
	convN              int
	convProcs          []int
	autoTransA         int // engine_auto: reshaped transpose
	autoTransB         int // engine_auto: plain transpose
	autoConvN          int
	autoProcs          int
}

// Sizes are fitted to the driver's budget of about 20 s per run, set-up
// included; README.md gives the instruction and miss mix measured at them.
var (
	fullSim = simScale{luN: 32, transN: 512, transIters: 2, transProcs: []int{16, 64},
		convN: 512, convProcs: []int{32},
		autoTransA: 512, autoTransB: 256, autoConvN: 512, autoProcs: 32}
	smokeSim = simScale{luN: 8, transN: 64, transIters: 1, transProcs: []int{4, 8},
		convN: 48, convProcs: []int{4},
		autoTransA: 64, autoTransB: 48, autoConvN: 48, autoProcs: 4}
)

// pointGroup is the points of one sweep; they share a compile cache, as
// experiments.sweep shares one per sweep.
type pointGroup struct {
	points []simPoint
}

func scaled(p int) func() *machine.Config {
	return func() *machine.Config { return machine.Scaled(p) }
}

func oneSource(src string) map[string]string { return map[string]string{"bench.f": src} }

// luMachine is experiments.luMachine: node memory sized so the LU data set
// exceeds one node by the paper's ratio.
func luMachine(n, p int, frac float64) func() *machine.Config {
	return func() *machine.Config {
		cfg := machine.Scaled(p)
		data := int64(2) * 5 * int64(n) * int64(n) * int64(n) * 8
		node := int(float64(data) / frac)
		if node < 4*cfg.PageBytes {
			node = 4 * cfg.PageBytes
		}
		cfg.NodeMemBytes = node
		return cfg
	}
}

func sweepLabel(exp string, n int, variant string, p int) string {
	return fmt.Sprintf("%s n=%d/%s/P=%d", exp, n, variant, p)
}

// table2Points mirrors the steps of experiments.Table2.
func table2Points(s experiments.Sizes) []pointGroup {
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
	var g pointGroup
	for _, st := range steps {
		g.points = append(g.points, simPoint{
			label:   sweepLabel("table2", s.LUN, st.label, 1),
			sources: oneSource(workloads.LU(s.LUN, s.LUIters, st.v)),
			opt:     st.opt, mach: luMachine(s.LUN, 1, s.LUNodeFrac), policy: ospage.FirstTouch,
			ref: &arrayRef{kind: "lu", n: s.LUN},
		})
	}
	return []pointGroup{g}
}

// figurePoints mirrors experiments.sweep: the serial baseline, then the
// four placement strategies at every processor count.
func figurePoints(exp string, n int, procs []int, gen func(workloads.Variant) string, ref *arrayRef) pointGroup {
	variants := []struct {
		label   string
		variant workloads.Variant
		policy  ospage.Policy
	}{
		{"first-touch", workloads.Plain, ospage.FirstTouch},
		{"round-robin", workloads.Plain, ospage.RoundRobin},
		{"regular", workloads.Regular, ospage.FirstTouch},
		{"reshaped", workloads.Reshaped, ospage.FirstTouch},
	}
	g := pointGroup{points: []simPoint{{
		label:   sweepLabel(exp, n, "serial baseline", 1),
		sources: oneSource(gen(workloads.Serial)),
		opt:     xform.O3(), mach: scaled(1), policy: ospage.FirstTouch, ref: ref,
	}}}
	for _, v := range variants {
		for _, p := range procs {
			g.points = append(g.points, simPoint{
				label:   sweepLabel(exp, n, v.label, p),
				sources: oneSource(gen(v.variant)),
				opt:     xform.O3(), mach: scaled(p), policy: v.policy, ref: ref,
			})
		}
	}
	return g
}

func fig5Points(s experiments.Sizes) []pointGroup {
	return []pointGroup{figurePoints("fig5", s.TransN, s.Procs,
		func(v workloads.Variant) string { return workloads.Transpose(s.TransN, s.TransIters, v) },
		&arrayRef{kind: "transpose", n: s.TransN})}
}

func fig7Points(s experiments.Sizes) []pointGroup {
	var out []pointGroup
	for levels := 1; levels <= 2; levels++ {
		levels := levels
		out = append(out, figurePoints(fmt.Sprintf("fig7-%dlevel", levels), s.ConvLargeN, s.Procs,
			func(v workloads.Variant) string { return workloads.Convolution(s.ConvLargeN, s.ConvIters, levels, v) },
			&arrayRef{kind: "conv", n: s.ConvLargeN, levels: levels}))
	}
	return out
}

// autoPoints are the four engine_auto points; each is its own group (no
// shared cache: every op builds, as a dsmrun invocation does).
func autoPoints(sc simScale) []pointGroup {
	mk := func(what string, n int, src string, ref *arrayRef) pointGroup {
		return pointGroup{points: []simPoint{{
			label:   sweepLabel("auto "+what, n, "first-touch", sc.autoProcs),
			sources: oneSource(src), opt: xform.O3(), checks: true,
			mach: scaled(sc.autoProcs), policy: ospage.FirstTouch, ref: ref,
		}}}
	}
	return []pointGroup{
		mk("transpose reshaped", sc.autoTransA, workloads.Transpose(sc.autoTransA, 2, workloads.Reshaped),
			&arrayRef{kind: "transpose", n: sc.autoTransA}),
		mk("transpose plain", sc.autoTransB, workloads.Transpose(sc.autoTransB, 2, workloads.Plain),
			&arrayRef{kind: "transpose", n: sc.autoTransB}),
		mk("conv2 reshaped", sc.autoConvN, workloads.Convolution(sc.autoConvN, 1, 2, workloads.Reshaped),
			&arrayRef{kind: "conv", n: sc.autoConvN, levels: 2}),
		mk("conv2 plain", sc.autoConvN, workloads.Convolution(sc.autoConvN, 1, 2, workloads.Plain),
			&arrayRef{kind: "conv", n: sc.autoConvN, levels: 2}),
	}
}

// simDef is one simulator workload at one scale.
type simDef struct {
	groups []pointGroup
	// sweep runs the same points through the experiment harness (nil for
	// engine_auto, whose untraced pass is the staged driver itself).
	sweep func() ([]experiments.Row, error)
	n     int // problem size, for a row's label
	// shape checks the paper's §8 orderings on one pass's counts.
	shape func(at func(label string) simCounts, chk *checker)
}

func sizesFor(sc simScale) experiments.Sizes {
	s := experiments.Full()
	s.LUN, s.TransN, s.TransIters, s.ConvLargeN = sc.luN, sc.transN, sc.transIters, sc.convN
	// One point at a time on the serial engine: the sweeps measure the
	// simulator, not the host scheduler.
	s.Par, s.Engine, s.Tier = 1, exec.EngineSerial, exec.TierAuto
	return s
}

func simDefFor(name string, sc simScale, full bool) simDef {
	s := sizesFor(sc)
	switch name {
	case "lu_ladder":
		d := simDef{groups: table2Points(s), n: s.LUN,
			sweep: func() ([]experiments.Row, error) { return experiments.Table2(s) }}
		if !full {
			return d
		}
		d.shape = func(at func(string) simCounts, chk *checker) {
			cyc := make([]int64, len(d.groups[0].points))
			for i, pt := range d.groups[0].points {
				cyc[i] = at(pt.label).Cycles
			}
			for i := 0; i < 3; i++ {
				chk.op(cyc[i] >= cyc[i+1], "Table 2 ordering violated: %q has %d cycles, %q has %d",
					d.groups[0].points[i].label, cyc[i], d.groups[0].points[i+1].label, cyc[i+1])
			}
			o3, orig := float64(cyc[3]), float64(cyc[4])
			chk.op(o3 <= 1.15*orig && o3 >= 0.85*orig,
				"Table 2: fully optimized reshaped LU (%d cycles) is not within 15%% of the original (%d)", cyc[3], cyc[4])
		}
		return d
	case "transpose_sweep":
		s.Procs = sc.transProcs
		d := simDef{groups: fig5Points(s), n: s.TransN,
			sweep: func() ([]experiments.Row, error) { return experiments.Fig5(s) }}
		if full {
			// Speedup is baseline cycles over the point's, so fewer
			// cycles is the larger speedup.
			d.shape = func(at func(string) simCounts, chk *checker) {
				c := func(v string) int64 { return at(sweepLabel("fig5", s.TransN, v, 64)).Cycles }
				chk.op(c("reshaped") < c("round-robin") && c("round-robin") < c("first-touch"),
					"Fig. 5 ordering at P=64 violated: reshaped %d, round-robin %d, first-touch %d cycles",
					c("reshaped"), c("round-robin"), c("first-touch"))
			}
		}
		return d
	case "conv_sweep":
		s.Procs = sc.convProcs
		return simDef{groups: fig7Points(s), n: s.ConvLargeN,
			sweep: func() ([]experiments.Row, error) { return experiments.Fig7(s) }}
	case "engine_auto":
		return simDef{groups: autoPoints(sc)}
	}
	panic("not a simulator workload: " + name)
}

// simWorkload runs one simDef.
type simWorkload struct {
	e      *env
	name   string
	engine exec.Engine
	def    simDef
	gold   *golden
	refs   refCache
	shaped bool
	totals simTotals // counts of the traced pass
	used   *exec.Result
	procs  int // GOMAXPROCS to restore at teardown (0: not changed)
}

func newSimWorkload(e *env, name string) *simWorkload {
	w := &simWorkload{e: e, name: name, engine: exec.EngineSerial}
	if name == "engine_auto" {
		w.engine = exec.EngineAuto
	}
	return w
}

func (w *simWorkload) setupReps() int { return 5 }

func (w *simWorkload) setup() error {
	// The three sweeps run on the serial engine, one point at a time, and
	// get one P as well. With two, the collector's background workers fault
	// and release pages beside the simulator thread, and on the sizing host
	// (a microVM where two threads faulting at once pay 4-10x per fault)
	// that made the same binary 25 % slower for tens of minutes at a time;
	// with one the sweeps repeat within 1 %. See README.md.
	if w.engine == exec.EngineSerial && w.procs == 0 {
		w.procs = runtime.GOMAXPROCS(1)
	}
	var err error
	if w.gold, err = loadGolden(w.e.cfg.root, w.name); err != nil {
		return err
	}
	w.refs = refCache{}
	// Warm-up: one smoke-scale pass through the same engine and tier.
	w.def = simDefFor(w.name, smokeSim, false)
	if _, err := w.stagedPass(nil); err != nil {
		return err
	}
	if !w.e.cfg.smoke {
		w.def = simDefFor(w.name, fullSim, true)
	}
	w.shaped = false
	return nil
}

func (w *simWorkload) teardown() {
	if w.procs > 0 {
		runtime.GOMAXPROCS(w.procs)
		w.procs = 0
	}
}

func (w *simWorkload) pass(tr *tracer) (passStat, error) {
	if tr == nil && w.def.sweep != nil {
		return w.sweepPass()
	}
	return w.stagedPass(tr)
}

// sweepPass is the untraced pass of the three sweeps: the experiment
// harness itself, every row checked against the golden counts.
func (w *simWorkload) sweepPass() (passStat, error) {
	var ps passStat
	t0 := time.Now()
	rows, err := w.def.sweep()
	ps.wall = time.Since(t0).Seconds()
	if err != nil {
		return ps, err
	}
	got := map[string]simCounts{}
	for _, r := range rows {
		label := sweepLabel(r.Exp, w.def.n, r.Variant, r.P)
		got[label] = countsOfRow(r)
		w.gold.check(w.e.chk, label, got[label])
		ps.opMS = append(ps.opMS, r.WallMS)
		ps.instrs += r.Instrs
	}
	w.checkShape(func(label string) simCounts { return got[label] })
	return ps, nil
}

func (w *simWorkload) checkShape(at func(string) simCounts) {
	if w.def.shape != nil && !w.shaped {
		w.shaped = true
		w.def.shape(at, w.e.chk)
	}
}

// stagedPass drives every point stage by stage. With a tracer it also
// checks array contents (between spans, so the check is not in any span)
// and accumulates the pass's simulated counts.
func (w *simWorkload) stagedPass(tr *tracer) (passStat, error) {
	var ps passStat
	got := map[string]simCounts{}
	w.totals = simTotals{}
	for _, g := range w.def.groups {
		var cache *core.BuildCache
		if len(g.points) > 1 {
			cache = core.NewBuildCache()
		}
		for i := range g.points {
			pt := &g.points[i]
			t0 := time.Now()
			res, err := pt.staged(tr, cache, runOpts{engine: w.engine, tier: exec.TierAuto})
			d := time.Since(t0)
			if err != nil {
				return ps, err
			}
			ps.wall += d.Seconds()
			ps.opMS = append(ps.opMS, float64(d)/1e6)
			ps.instrs += res.Instrs
			w.used = res
			got[pt.label] = countsOfResult(res)
			w.gold.check(w.e.chk, pt.label, got[pt.label])
			if tr != nil {
				w.totals.add(got[pt.label], res.Pages)
				ps.committed += res.EpochsCommitted
				ps.fallback += res.EpochsFallback
				if pt.ref != nil {
					err := w.refs.checkArrays(pt.ref, res)
					w.e.chk.op(err == nil, "point %q: %v", pt.label, err)
				}
			}
		}
	}
	w.checkShape(func(label string) simCounts { return got[label] })
	return ps, nil
}

func (w *simWorkload) describe() string {
	if w.used == nil {
		return ""
	}
	return fmt.Sprintf("engine %s, tier %s (as resolved by the run), gomaxprocs %d", w.used.EngineUsed, w.used.TierUsed, runtime.GOMAXPROCS(0))
}

// layers fills the per-layer metrics of a simulator workload.
func (w *simWorkload) layers(tr *tracer, traced passStat, m map[string]float64) error {
	stageTimes(tr, traced.wall*1000, m)
	w.totals.metrics(m)
	cal := calibrate(w.e.cfg.smoke)
	cal.metrics(m)
	cal.model(w.totals.counts, m["exec.run_ms"], w.used.TierUsed, m)

	m["exec.epochs_committed"] = float64(traced.committed)
	m["exec.epochs_fallback"] = float64(traced.fallback)
	if n := traced.committed + traced.fallback; n > 0 {
		m["exec.commit_ratio"] = float64(traced.committed) / float64(n)
	}
	if w.name == "engine_auto" {
		// The same points on the serial engine, back to back with the
		// traced pass: auto's wall over serial's.
		used := w.used
		defer func() { w.used = used }()
		hostpool.ResetPeak()
		auto, err := w.stagedPass(nil)
		if err != nil {
			return err
		}
		m["hostpool.peak"] = float64(hostpool.Peak())
		w.engine = exec.EngineSerial
		serial, err := w.stagedPass(nil)
		w.engine = exec.EngineAuto
		if err != nil {
			return err
		}
		m["exec.auto_over_serial"] = auto.wall / serial.wall
	}
	return nil
}
