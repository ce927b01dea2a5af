// Package exec runs compiled images on the simulated machine: a serial
// thread on processor 0 executes the program; each doacross Region fans out
// onto every processor, with threads interleaved in fixed quanta so the
// shared memory system sees realistic contention; implicit barriers close
// every region (paper §3.1 "an implicit barrier at the end of the doacross
// loop"); explicit dsm_barrier calls rendezvous inside regions.
//
// A run is one goroutine: every simulated processor of a region is
// interleaved on it by the region loop in region.go.
package exec

import (
	"fmt"

	"dsmdist/internal/bytecode"
	"dsmdist/internal/codegen"
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
	// Engine is ignored.
	//
	// Deprecated: see Engine.
	Engine Engine
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

	// EngineUsed is always EngineSerial.
	//
	// Deprecated: see Engine.
	EngineUsed Engine
	// TierUsed is the execution tier that actually ran (Options.Tier
	// resolved); diagnostics only.
	TierUsed Tier
	// EpochsCommitted and EpochsFallback are always 0.
	//
	// Deprecated: see Engine.
	EpochsCommitted int64
	EpochsFallback  int64
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
	tier := opts.Tier.Resolve()
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

	acc := &Result{RT: rt, EngineUsed: EngineSerial, TierUsed: tier}
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
			if err := runRegion(rt, costs, serial, quantum, maxQuanta, acc); err != nil {
				return nil, err
			}
			serial.Resume()
		}
	}
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
