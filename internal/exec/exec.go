// Package exec runs compiled images on the simulated machine: a serial
// thread on processor 0 executes the program; each doacross Region fans out
// onto every processor, with threads interleaved in fixed quanta so the
// shared memory system sees realistic contention; implicit barriers close
// every region (paper §3.1 "an implicit barrier at the end of the doacross
// loop"); explicit dsm_barrier calls rendezvous inside regions.
//
// Two engines execute regions: the serial engine interleaves all simulated
// processors on one goroutine; the parallel engine (parallel.go) runs them
// on real host cores in speculative epochs. Both are bit-identical in every
// simulated cycle, stat, and recorder event.
package exec

import (
	"fmt"
	"strings"

	"dsmdist/internal/bytecode"
	"dsmdist/internal/codegen"
	"dsmdist/internal/hostpool"
	"dsmdist/internal/machine"
	"dsmdist/internal/memsim"
	"dsmdist/internal/obs"
	"dsmdist/internal/ospage"
	"dsmdist/internal/rtl"
)

// Options configure a run.
type Options struct {
	// Policy is the default page-allocation policy for unplaced pages
	// (first-touch or round-robin, §2).
	Policy ospage.Policy
	// Quantum is the instruction interleave granularity (default 2000).
	Quantum int
	// MaxQuanta bounds total scheduling rounds as a runaway guard
	// (default 1<<34; raise with dsmrun -max-quanta).
	MaxQuanta int64
	// Rec, when non-nil, receives observability events from the whole
	// stack (load-time placement, memory system, regions, barriers).
	Rec *obs.Recorder
	// RedistSerial runs c$redistribute under the serial page-walk cost
	// model instead of the scheduled collective. A reference, not an
	// option: only experiments.Redist (dsmbench -exp redist, the A/B
	// EXPERIMENTS.md reports) and the redistribute tests set it.
	RedistSerial bool
	// Engine selects the host execution engine (serial, parallel, auto).
	// Results are bit-identical either way; see Engine.
	Engine Engine
	// Workers fixes the number of host goroutines the parallel engine may
	// use per region. 0 (the default) draws from the shared hostpool
	// budget each region, cooperating with experiments.ForEach; the
	// DSM_WORKERS environment variable fills an unset value.
	Workers int
	// Tier pins the bytecode interpreter for identity tests and bench/'s
	// oracle; everything else leaves it zero (compiled). See Tier.
	Tier Tier
}

// Result is a completed run.
type Result struct {
	RT     *rtl.Runtime
	Cycles int64 // wall-clock cycles (max over processors)
	Stats  []memsim.ProcStats
	Total  memsim.ProcStats
	Pages  ospage.Stats

	// Executed-operation counters across all threads (Table 2 reads the
	// divide counts).
	HwDiv   int64
	SoftDiv int64
	Instrs  int64

	// TimerCycles is the dsm_timer region-of-interest time, 0 when the
	// program never called the timer.
	TimerCycles int64

	// EngineUsed is the engine that actually ran (after auto/env
	// resolution); diagnostics only.
	EngineUsed Engine
	// TierUsed is the execution tier that actually ran (Options.Tier
	// resolved); diagnostics only.
	TierUsed Tier
	// EpochsCommitted / EpochsFallback count the parallel engine's
	// speculative epochs that published vs. re-ran serially;
	// FallbackCauses splits the fallbacks by memsim.AbortReason, and
	// EpochsSkipped is how many epochs the speculation governor sat out
	// after them (each sit-out counted in full even when the region ended
	// inside it). All zero under the serial engine. Host-side diagnostics
	// only: they never enter core.ResultDoc, core.JobKey or the series
	// rows, which are engine-independent.
	EpochsCommitted int64
	EpochsFallback  int64
	EpochsSkipped   int64
	FallbackCauses  [memsim.NumAbortReasons]int64
}

// FallbackBreakdown renders FallbackCauses as "9 intervention, 4
// validation": causes in memsim.AbortReason order, zero counts omitted,
// empty when nothing fell back.
func (r *Result) FallbackBreakdown() string {
	var parts []string
	for cause, n := range r.FallbackCauses {
		if n > 0 {
			parts = append(parts, fmt.Sprintf("%d %v", n, memsim.AbortReason(cause)))
		}
	}
	return strings.Join(parts, ", ")
}

// Seconds converts the run's cycles to seconds on the simulated clock.
func (r *Result) Seconds() float64 { return r.RT.Cfg.Seconds(r.Cycles) }

// Run loads and executes a compiled image.
func Run(res *codegen.Result, cfg *machine.Config, opts Options) (*Result, error) {
	rt, err := rtl.LoadObs(res, cfg, opts.Policy, opts.Rec)
	if err != nil {
		return nil, err
	}
	return RunLoaded(rt, opts)
}

// RunLoaded executes an already-loaded runtime (tests pre-initialize
// arrays through it).
func RunLoaded(rt *rtl.Runtime, opts Options) (*Result, error) {
	if opts.Rec != nil && rt.Rec == nil {
		rt.AttachRecorder(opts.Rec)
	}
	if opts.RedistSerial {
		rt.RedistSerial = true
	}
	cfg := rt.Cfg
	quantum := opts.Quantum
	if quantum <= 0 {
		quantum = 2000
	}
	maxQuanta := opts.MaxQuanta
	if maxQuanta <= 0 {
		maxQuanta = 1 << 34
	}
	engine := resolveEngine(opts.Engine, cfg.NProcs)
	tier := opts.Tier.Resolve()
	workers := resolveWorkers(opts.Workers)
	gov := governor{}
	costs := bytecode.NewCosts(cfg)

	// Derived per-function metadata (out-arg buffer sizes); idempotent,
	// and needed by both tiers' frame preallocation.
	rt.Prog.Finalize()
	var cp *bytecode.Compiled
	if tier == TierCompiled {
		cp = bytecode.CompileProgram(rt.Prog, costs)
	}

	serial := bytecode.NewThread(0, rt.Sys, rt.Prog, rt, costs, rt.Prog.Main, nil,
		rt.StackBase[0], rt.StackEnd[0])
	serial.UseCompiled(cp)

	acc := &Result{RT: rt, EngineUsed: engine, TierUsed: tier}
	var rounds int64
	for {
		rounds++
		if rounds > maxQuanta {
			return nil, fmt.Errorf("exec: exceeded quantum budget of %d (infinite loop? raise with -max-quanta)", maxQuanta)
		}
		switch serial.Step(quantum) {
		case bytecode.Running:
		case bytecode.Done:
			if serial.Err != nil {
				return nil, serial.Err
			}
			acc.HwDiv += serial.HwDiv
			acc.SoftDiv += serial.SoftDiv
			acc.Instrs += serial.Instrs
			finish(acc)
			return acc, nil
		case bytecode.AtBarrier:
			// A barrier in serial code synchronizes nothing.
		case bytecode.AtParCall:
			var err error
			if engine == EngineParallel {
				err = runRegionWithWorkers(rt, costs, serial, quantum, maxQuanta, workers, gov, acc)
			} else {
				err = runRegion(rt, costs, serial, quantum, maxQuanta, acc)
			}
			if err != nil {
				return nil, err
			}
			serial.Resume()
		}
	}
}

// runRegionWithWorkers sizes the parallel engine's worker set for one
// region and runs it. With Workers unset we draw extra workers from the
// shared hostpool budget (the caller's goroutine is always one worker);
// an explicit Workers bypasses the pool so tests can force concurrency on
// small hosts.
func runRegionWithWorkers(rt *rtl.Runtime, costs *bytecode.Costs, serial *bytecode.Thread,
	quantum int, maxQuanta int64, workers int, gov governor, acc *Result) error {

	np := rt.Cfg.NProcs
	if workers <= 0 {
		extra := hostpool.Acquire(np - 1)
		defer hostpool.Release(extra)
		workers = 1 + extra
	}
	if workers > np {
		workers = np
	}
	return runRegionParallel(rt, costs, serial, quantum, maxQuanta, workers, gov, acc)
}

func finish(r *Result) {
	rt := r.RT
	r.Pages = rt.Pages.Stats()
	r.TimerCycles = rt.TimerCycles
	for p := 0; p < rt.Cfg.NProcs; p++ {
		st := rt.Sys.Stats(p)
		r.Stats = append(r.Stats, st)
		r.Total.Add(st)
		if c := rt.Sys.Clock(p); c > r.Cycles {
			r.Cycles = c
		}
	}
	rt.Rec.Finish(r.Cycles)
}

// Speedup is a convenience for experiment harnesses: serial cycles over
// parallel cycles.
func Speedup(serialCycles, parallelCycles int64) float64 {
	if parallelCycles == 0 {
		return 0
	}
	return float64(serialCycles) / float64(parallelCycles)
}
