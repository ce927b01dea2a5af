package exec

import (
	"fmt"

	"dsmdist/internal/bytecode"
	"dsmdist/internal/memsim"
	"dsmdist/internal/obs"
	"dsmdist/internal/rtl"
)

// cycleQuantum bounds how far (in cycles) one processor may run ahead of
// the others inside a region; it must stay small relative to the memsim
// bandwidth-window ring so contention is observed accurately. It is part
// of the simulated arrival order: changing it moves every golden.
const cycleQuantum = 4000

// regionRun is the execution state of one doacross region: one thread per
// simulated processor, all stepped on the caller's goroutine by
// serialWindow.
type regionRun struct {
	rt        *rtl.Runtime
	sys       *memsim.System
	rec       *obs.Recorder
	threads   []*bytecode.Thread
	procs     []int
	done      []bool
	atBarrier []bool
	remaining int
	lastSel   int
	rounds    int64
	maxQuanta int64
	quantum   int
	np        int
}

// newRegionRun performs the fork prologue: clocks join the master, every
// processor pays the dispatch cost, and one thread per processor is
// created to run the region function.
func newRegionRun(rt *rtl.Runtime, costs *bytecode.Costs, serial *bytecode.Thread,
	quantum int, maxQuanta int64) *regionRun {

	cfg := rt.Cfg
	np := cfg.NProcs
	sys := rt.Sys
	rec := rt.Rec
	rt.ResetDynamic()

	// Fork: idle processors jump to the master's clock; everyone pays
	// the dispatch cost.
	t0 := sys.Clock(0)
	if rec != nil {
		fn := rt.Prog.Fns[serial.ParFn]
		rec.RegionBegin(fn.Name, fn.File, fn.Line, t0, np)
	}
	procs := make([]int, np)
	for p := 0; p < np; p++ {
		procs[p] = p
		if sys.Clock(p) < t0 {
			sys.SetClock(p, t0)
		}
		sys.AddCycles(p, int64(cfg.ForkCyc))
	}

	threads := make([]*bytecode.Thread, np)
	for p := 0; p < np; p++ {
		args := make([]int64, len(serial.ParArgs))
		copy(args, serial.ParArgs)
		sp := rt.StackBase[p]
		end := rt.StackEnd[p]
		if p == 0 {
			sp = serial.SP // above the serial frames
		}
		threads[p] = bytecode.NewThread(p, sys, rt.Prog, rt, costs, serial.ParFn, args, sp, end)
		threads[p].UseCompiled(serial.CompiledTier())
	}

	return &regionRun{
		rt:        rt,
		sys:       sys,
		rec:       rec,
		threads:   threads,
		procs:     procs,
		done:      make([]bool, np),
		atBarrier: make([]bool, np),
		remaining: np,
		lastSel:   -1,
		maxQuanta: maxQuanta,
		quantum:   quantum,
		np:        np,
	}
}

func errRegionBudget(limit int64) error {
	return fmt.Errorf("exec: region exceeded quantum budget of %d (raise with -max-quanta)", limit)
}

// serialWindow runs the region's serial scheduling loop — always advancing
// the runnable thread with the smallest clock, so simulated time advances
// roughly in lockstep and the node-bandwidth model sees a fair arrival
// order — until every thread finished, an error occurs, or every runnable
// thread's clock has reached `until` (explicit-barrier releases still
// happen inside the window, exactly as the unbounded loop would).
func (rr *regionRun) serialWindow(until int64) error {
	for rr.remaining > 0 {
		sel := -1
		var selClock int64
		for p := 0; p < rr.np; p++ {
			if rr.done[p] || rr.atBarrier[p] {
				continue
			}
			if c := rr.sys.Clock(p); sel < 0 || c < selClock {
				sel, selClock = p, c
			}
		}
		if sel >= 0 && selClock >= until {
			return nil // window exhausted; caller decides what's next
		}
		rr.rounds++
		if rr.rounds > rr.maxQuanta {
			return errRegionBudget(rr.maxQuanta)
		}
		if sel >= 0 {
			if rr.rec != nil && sel != rr.lastSel {
				rr.rec.QuantumSwitch(sel)
				rr.lastSel = sel
			}
			switch rr.threads[sel].StepCycles(rr.quantum, cycleQuantum) {
			case bytecode.Running:
			case bytecode.Done:
				if rr.threads[sel].Err != nil {
					return fmt.Errorf("processor %d: %w", sel, rr.threads[sel].Err)
				}
				rr.done[sel] = true
				rr.remaining--
			case bytecode.AtBarrier:
				rr.atBarrier[sel] = true
			case bytecode.AtParCall:
				return fmt.Errorf("processor %d: nested doacross regions are not supported", sel)
			}
			continue
		}
		if err := rr.releaseBarrier(); err != nil {
			return err
		}
	}
	return nil
}

// releaseBarrier releases the explicit dsm_barrier rendezvous once every
// live thread has arrived (no runnable thread remains).
func (rr *regionRun) releaseBarrier() error {
	var waiting []int
	for p := 0; p < rr.np; p++ {
		if rr.atBarrier[p] {
			waiting = append(waiting, p)
		}
	}
	if len(waiting) == 0 {
		return fmt.Errorf("exec: region scheduler wedged")
	}
	rr.sys.Barrier(waiting)
	for _, p := range waiting {
		rr.atBarrier[p] = false
	}
	return nil
}

// finishRegion runs the implicit end-of-doacross barrier across all
// processors and folds the threads' operation counters into the result.
func (rr *regionRun) finishRegion(acc *Result) error {
	var ends []int64
	if rr.rec != nil {
		ends = make([]int64, rr.np)
		for p := 0; p < rr.np; p++ {
			ends[p] = rr.sys.Clock(p)
		}
	}
	rr.sys.Barrier(rr.procs)
	if rr.rec != nil {
		rr.rec.RegionEnd(ends, rr.sys.Clock(0))
	}
	for _, th := range rr.threads {
		acc.HwDiv += th.HwDiv
		acc.SoftDiv += th.SoftDiv
		acc.Instrs += th.Instrs
	}
	return nil
}

// runRegion executes one doacross region: the unbounded serial window.
func runRegion(rt *rtl.Runtime, costs *bytecode.Costs, serial *bytecode.Thread,
	quantum int, maxQuanta int64, acc *Result) error {

	rr := newRegionRun(rt, costs, serial, quantum, maxQuanta)
	if err := rr.serialWindow(1 << 62); err != nil {
		return err
	}
	return rr.finishRegion(acc)
}
