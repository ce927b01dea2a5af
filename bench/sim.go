package main

import (
	"fmt"

	"dsmdist/internal/bytecode"
	"dsmdist/internal/core"
	"dsmdist/internal/exec"
	"dsmdist/internal/machine"
	"dsmdist/internal/obs"
	"dsmdist/internal/ospage"
	"dsmdist/internal/rtl"
	"dsmdist/internal/workloads"
	"dsmdist/internal/xform"
)

// simPoint is one build-and-simulate configuration: a sweep point, an
// engine_auto point, or a dsmd job run locally.
type simPoint struct {
	label   string // golden key
	sources map[string]string
	opt     xform.Options
	checks  bool // §6 runtime argument checks
	mach    func() *machine.Config
	policy  ospage.Policy
	// ref names the array reference the traced pass checks the contents
	// against (nil: the point has no array check).
	ref *arrayRef
}

// arrayRef says how to check a finished run's arrays against something the
// configuration under test did not produce alone.
type arrayRef struct {
	kind   string // "transpose": closed form; "lu", "conv": Serial variant at O0, classic tier
	n      int
	levels int // conv only
}

// runOpts are the host-side choices of one run; none changes a simulated
// count.
type runOpts struct {
	engine exec.Engine
	tier   exec.Tier
	rec    *obs.Recorder
}

func (pt *simPoint) toolchain(cache *core.BuildCache) *core.Toolchain {
	tc := core.NewAt(pt.opt)
	tc.RuntimeChecks = pt.checks
	tc.Cache = cache
	return tc
}

// staged builds, loads and runs one point, calling each stage explicitly
// so the tracer can time it. exec.RunLoaded compiles the program for the
// compiled tier itself; the separately timed CompileProgram call here is a
// duplicate made only to measure that stage, and stageTimes subtracts it
// from the run span.
func (pt *simPoint) staged(tr *tracer, cache *core.BuildCache, o runOpts) (*exec.Result, error) {
	root := tr.begin("point", -1, pt.label)
	defer tr.end(root)

	var hits0 int64
	if cache != nil {
		hits0, _ = cache.Stats()
	}
	b := tr.begin("core.build", root, pt.label)
	img, err := pt.toolchain(cache).Build(pt.sources)
	tr.end(b)
	if err != nil {
		return nil, fmt.Errorf("%s: build: %w", pt.label, err)
	}
	if cache != nil && tr != nil {
		if hits, _ := cache.Stats(); hits > hits0 {
			tr.spans[b].Name = "core.build_cache_hit"
		}
	}

	cfg := pt.mach()
	l := tr.begin("rtl.load", root, pt.label)
	rt, err := rtl.LoadObs(img.Res, cfg, pt.policy, o.rec)
	tr.end(l)
	if err != nil {
		return nil, fmt.Errorf("%s: load: %w", pt.label, err)
	}

	if tr != nil && o.tier.Resolve() == exec.TierCompiled {
		c := tr.begin("bytecode.compile_program", root, pt.label)
		rt.Prog.Finalize()
		bytecode.CompileProgram(rt.Prog, bytecode.NewCosts(cfg))
		tr.end(c)
	}

	r := tr.begin("exec.run", root, pt.label)
	res, err := exec.RunLoaded(rt, exec.Options{Policy: pt.policy, Rec: o.rec, Engine: o.engine, Tier: o.tier})
	tr.end(r)
	if err != nil {
		return nil, fmt.Errorf("%s: run: %w", pt.label, err)
	}

	if tr != nil {
		d := tr.begin("core.resultdoc", root, pt.label)
		_, err = core.NewResultDoc(cfg, pt.policy, res).Marshal()
		tr.end(d)
		if err != nil {
			return nil, fmt.Errorf("%s: result document: %w", pt.label, err)
		}
	}
	return res, nil
}

// refCache holds the reference arrays of the LU and convolution checks, one
// reference run per (kind, n, levels).
type refCache map[arrayRef]map[string][]float64

// mainUnit is the program-unit name each generator emits.
var mainUnit = map[string]string{"transpose": "transp", "lu": "lukern", "conv": "conv"}

// checkArrays compares the arrays a run left behind with their reference.
func (rc refCache) checkArrays(ref *arrayRef, res *exec.Result) error {
	unit := mainUnit[ref.kind]
	if ref.kind == "transpose" {
		// a(j,i) = b(i,j) = i + 0.5*j, so a(r,c) = c + 0.5*r.
		a, err := core.Array(res, unit, "a")
		if err != nil {
			return err
		}
		n := ref.n
		for c := 1; c <= n; c++ {
			for r := 1; r <= n; r++ {
				if got, want := a[(r-1)+(c-1)*n], float64(c)+0.5*float64(r); got != want {
					return fmt.Errorf("a(%d,%d) = %v, closed form gives %v", r, c, got, want)
				}
			}
		}
		return nil
	}

	want, ok := rc[*ref]
	if !ok {
		var src string
		var names []string
		if ref.kind == "lu" {
			src, names = workloads.LU(ref.n, 1, workloads.Serial), []string{"u", "rsd"}
		} else {
			src, names = workloads.Convolution(ref.n, 1, ref.levels, workloads.Serial), []string{"a"}
		}
		pt := simPoint{label: "reference", sources: map[string]string{"bench.f": src},
			opt: xform.O0(), mach: func() *machine.Config { return machine.Scaled(1) }}
		refRes, err := pt.staged(nil, nil, runOpts{engine: exec.EngineSerial, tier: exec.TierClassic})
		if err != nil {
			return fmt.Errorf("reference run: %w", err)
		}
		want = map[string][]float64{}
		for _, name := range names {
			if want[name], err = core.Array(refRes, unit, name); err != nil {
				return err
			}
		}
		rc[*ref] = want
	}
	for name, w := range want {
		got, err := core.Array(res, unit, name)
		if err != nil {
			return err
		}
		if len(got) != len(w) {
			return fmt.Errorf("array %s has %d elements, reference has %d", name, len(got), len(w))
		}
		for i := range w {
			if got[i] != w[i] {
				return fmt.Errorf("array %s element %d = %v, reference (serial, O0, classic tier) has %v", name, i, got[i], w[i])
			}
		}
	}
	return nil
}

// stageTimes reads the stage totals of one traced pass off the tracer and
// writes the stage and share metrics. passMS is the pass wall the shares
// are taken of.
func stageTimes(tr *tracer, passMS float64, m map[string]float64) {
	build, _ := tr.total("core.build")
	hit, nHit := tr.total("core.build_cache_hit")
	load, _ := tr.total("rtl.load")
	comp, _ := tr.total("bytecode.compile_program")
	run, _ := tr.total("exec.run")
	doc, nDoc := tr.total("core.resultdoc")
	// RunLoaded compiles the program again inside the run span.
	run -= comp
	if run < 0 {
		run = 0
	}
	m["core.build_ms"] = build
	if nHit > 0 {
		m["core.build_cache_hit_us"] = hit * 1000 / float64(nHit)
	}
	m["rtl.load_ms"] = load
	m["bytecode.compile_program_ms"] = comp
	m["exec.run_ms"] = run
	if nDoc > 0 {
		m["core.resultdoc_us"] = doc * 1000 / float64(nDoc)
	}
	m["share.build_pct"] = pct(build+hit, passMS)
	m["share.load_pct"] = pct(load, passMS)
	m["share.compile_program_pct"] = pct(comp, passMS)
	m["share.run_pct"] = pct(run, passMS)
	other := passMS - (build + hit + load + comp + run)
	if other < 0 {
		other = 0
	}
	m["share.other_pct"] = pct(other, passMS)
}

// simTotals accumulates the exact simulated counts of one pass.
type simTotals struct {
	counts simCounts
	placed int64
	spills int64
}

func (t *simTotals) add(c simCounts, pages ospage.Stats) {
	t.counts.Cycles += c.Cycles
	t.counts.Instrs += c.Instrs
	t.counts.HwDiv += c.HwDiv
	t.counts.SoftDiv += c.SoftDiv
	t.counts.Stats.Add(c.Stats)
	t.placed += pages.Mapped // every page the OS placed, whatever the policy
	t.spills += pages.Spilled
}

func (t *simTotals) metrics(m map[string]float64) {
	s := t.counts.Stats
	m["sim.cycles"] = float64(t.counts.Cycles)
	m["sim.instrs"] = float64(t.counts.Instrs)
	m["sim.accesses"] = float64(s.Loads + s.Stores)
	m["sim.l1_miss"] = float64(s.L1Miss)
	m["sim.l2_miss"] = float64(s.L2Miss)
	m["sim.l2_miss_remote"] = float64(s.L2MissRemote)
	m["sim.tlb_miss"] = float64(s.TLBMiss)
	m["sim.upgrades"] = float64(s.Upgrades)
	m["sim.wait_cyc"] = float64(s.WaitCyc)
	m["sim.hw_div"] = float64(t.counts.HwDiv)
	m["ospage.pages_placed"] = float64(t.placed)
	m["ospage.spills"] = float64(t.spills)
}
