package exec

import (
	"errors"
	"sync"
	"sync/atomic"

	"dsmdist/internal/bytecode"
	"dsmdist/internal/memsim"
	"dsmdist/internal/obs"
	"dsmdist/internal/rtl"
)

// The parallel engine runs each simulated processor's bytecode thread on a
// real host goroutine, in barrier-synchronous epochs of cycleQuantum
// simulated cycles, and is bit-identical to the serial engine:
//
//  1. Epoch: all runnable threads whose clock lies in [minClock,
//     minClock+cycleQuantum) run concurrently as memsim *scouts* — a
//     read-only pass over shared state with per-processor overlays for
//     directory lines, memory words, and bandwidth bookings (see
//     internal/memsim/scout.go). Processor-private state (caches, TLB,
//     clock, stats) advances lock-free with undo journals.
//  2. Validation: at the epoch barrier the overlays are checked for
//     conflicts — two scouts touching the same directory line, or
//     bandwidth bookings that would have made another scout wait.
//  3. Commit: a conflict-free epoch publishes every overlay; observability
//     events buffered per processor are replayed in the exact serial
//     schedule order (quanta merged by (start clock, proc id) — provably
//     the order the serial scheduler would have used).
//  4. Fallback: any conflict or abort (page fault, cross-processor
//     invalidation, non-whitelisted runtime call, trap) rolls the epoch
//     back and re-runs the same window through serialWindow — literally
//     the serial engine's loop — so divergence is impossible by
//     construction.
//  5. Governor: fallbacks come in long runs (a plain or first-touch
//     kernel misses into other processors' caches epoch after epoch), so
//     after a fallback the run sits out a doubling number of epochs and
//     executes the failed epoch and its whole sit-out as one serialWindow
//     call (see governor).
var errScoutRTC = errors.New("exec: runtime call aborted speculative epoch")

// gateRT wraps the real runtime so speculative quanta cannot mutate
// runtime-library state. Whitelisted calls are pure (portion bounds, nest
// grid) or touch nothing (dsm_barrier parks the thread); everything else
// aborts the scout, and the serial fallback re-executes the call for real.
type gateRT struct {
	rt *rtl.Runtime
}

func (g *gateRT) RTCall(t *bytecode.Thread, id int, args []int64) (int64, error) {
	if !g.rt.Sys.ScoutArmed(t.Proc) {
		return g.rt.RTCall(t, id, args)
	}
	switch id {
	case bytecode.RTBarrier, bytecode.RTPortionLo, bytecode.RTPortionHi, bytecode.RTNestGrid:
		return g.rt.RTCall(t, id, args)
	}
	g.rt.Sys.PoisonScout(t.Proc, memsim.AbortRTC)
	return 0, errScoutRTC
}

// maxSitOut caps the governor's sit-out, in epochs: a program that never
// commits still speculates once every maxSitOut+1 epochs, which bounds both
// the overhead (one wasted scout pass in 65) and how long a phase change —
// a reshaped loop after a plain one — goes unnoticed.
const maxSitOut = 64

// governor is the run's speculation governor. It decides, from simulated
// outcomes only (commit or fallback — never a host clock, so epoch counts
// repeat exactly across runs and worker counts), how long the run stops
// speculating after an epoch fell back: 1 epoch after the first fallback,
// doubling with every further one up to maxSitOut, and back to none at the
// next commit. One governor serves the whole run and keeps, per region
// function, how many epochs that function's last fallback sat out (0 once
// one of its epochs commits), so a doacross re-entered by an iteration loop
// starts from what its own last entry learned, whatever the loops in
// between did (see regionEnded). What is left of a sit-out when the region
// ends is not carried over, so every entry speculates at least once.
// Identity is untouched by construction: the governor only chooses how far
// the serial window after a fallback extends, and any stretch of a region
// may run through serialWindow.
type governor map[int]int

// fellBack returns how many epochs to sit out after the one that just
// fell back.
func (g governor) fellBack(fn int) int64 {
	n := min(max(1, 2*g[fn]), maxSitOut)
	g[fn] = n
	return int64(n)
}

func (g governor) committed(fn int) { g[fn] = 0 }

// regionEnded closes an entry of fn's region. The entry boundary is where
// the data's state is likeliest to have changed (other code ran in between),
// so what the entry learned is carried at a discount: the next entry's first
// fallback sits out half what this entry's last one did. A loop that cannot
// commit then costs two doomed epochs an entry instead of one per doubling
// step; a short loop whose every entry opens with a fallback but can commit
// after it works its way back in over a few entries, where carrying the
// level whole would sit every later entry out from its first epoch to its
// last.
func (g governor) regionEnded(fn int) { g[fn] /= 4 }

// scoutResult is one scout's outcome for an epoch.
type scoutResult struct {
	quanta  int64 // StepCycles calls made (== serial scheduling rounds)
	done    bool  // thread finished cleanly
	barrier bool  // thread parked at an explicit barrier
}

// specRegion is one doacross region under the speculative epoch engine:
// the shared region state plus the epoch scratch, allocated once a region
// so a committed epoch allocates nothing beyond its goroutine fan-out.
type specRegion struct {
	*regionRun
	gov       governor
	fn        int // the region function: the governor's key
	workers   int // host goroutines an epoch may use, the caller's included
	acc       *Result
	bufs      []*obs.ProcBuffer // nil without a recorder
	snaps     []*bytecode.ThreadSnapshot
	results   []scoutResult
	cands     []int
	replayIdx []int // per proc: next buffered quantum to replay
}

func newSpecRegion(rt *rtl.Runtime, costs *bytecode.Costs, serial *bytecode.Thread,
	quantum int, maxQuanta int64, workers int, gov governor, acc *Result) *specRegion {

	rr := newRegionRun(rt, costs, serial, quantum, maxQuanta, &gateRT{rt: rt})
	sr := &specRegion{
		regionRun: rr,
		gov:       gov,
		fn:        serial.ParFn,
		workers:   workers,
		acc:       acc,
		snaps:     make([]*bytecode.ThreadSnapshot, rr.np),
		results:   make([]scoutResult, rr.np),
		cands:     make([]int, 0, rr.np),
		replayIdx: make([]int, rr.np),
	}
	if rr.rec != nil {
		sr.bufs = make([]*obs.ProcBuffer, rr.np)
		for p := range sr.bufs {
			sr.bufs[p] = obs.NewProcBuffer()
		}
	}
	return sr
}

// runRegionParallel executes one doacross region with the speculative
// epoch engine on workers >= 1 host goroutines, the caller's included. An
// epoch with fewer than two workers (a dry hostpool, Workers 1) or fewer
// than two runnable threads skips the scout machinery and runs through
// serialWindow.
func runRegionParallel(rt *rtl.Runtime, costs *bytecode.Costs, serial *bytecode.Thread,
	quantum int, maxQuanta int64, workers int, gov governor, acc *Result) error {

	sr := newSpecRegion(rt, costs, serial, quantum, maxQuanta, workers, gov, acc)
	for sr.remaining > 0 {
		if err := sr.epoch(); err != nil {
			return err
		}
	}
	gov.regionEnded(sr.fn)
	return sr.finishRegion(acc)
}

// epoch plans and runs the region's next epoch: a barrier release, a serial
// window, or a speculative pass that commits or falls back.
func (sr *specRegion) epoch() error {
	rr, sys := sr.regionRun, sr.sys

	// The window starts at the smallest runnable clock and spans one
	// cycleQuantum.
	minC := int64(-1)
	for p := 0; p < rr.np; p++ {
		if rr.done[p] || rr.atBarrier[p] {
			continue
		}
		if c := sys.Clock(p); minC < 0 || c < minC {
			minC = c
		}
	}
	if minC < 0 {
		// Everyone parked: release the explicit barrier, exactly one
		// serial scheduling round.
		rr.rounds++
		if rr.rounds > rr.maxQuanta {
			return errRegionBudget(rr.maxQuanta)
		}
		return rr.releaseBarrier()
	}
	epochEnd := minC + cycleQuantum
	cands := sr.cands[:0]
	for p := 0; p < rr.np; p++ {
		if !rr.done[p] && !rr.atBarrier[p] && sys.Clock(p) < epochEnd {
			cands = append(cands, p)
		}
	}
	if len(cands) < 2 || sr.workers < 2 {
		// Not worth speculating; run the window serially (identical by
		// definition).
		return rr.serialWindow(epochEnd)
	}

	// Speculate: snapshot threads, arm scouts, fan out.
	for _, c := range cands {
		sr.snaps[c] = rr.threads[c].SnapshotInto(sr.snaps[c])
		var buf *obs.ProcBuffer
		if sr.bufs != nil {
			buf = sr.bufs[c]
		}
		sys.ArmScout(c, buf)
		sr.results[c] = scoutResult{}
	}
	sr.runScouts(cands, epochEnd, sr.workers)
	// The cause charged for a fallback is the lowest-numbered aborted
	// scout's, so the tally repeats exactly like the counts.
	var cause memsim.AbortReason
	for _, c := range cands {
		if cause = sys.ScoutAbortReason(c); cause != 0 {
			break
		}
	}
	if cause == 0 && !sys.ValidateScouts(cands) {
		cause = memsim.AbortValidation
	}
	if cause != 0 {
		for _, c := range cands {
			sys.AbortScout(c)
			rr.threads[c].Restore(sr.snaps[c])
		}
		// Re-run the epoch, and the sit-out the governor asks for, as
		// one serial window.
		skip := sr.gov.fellBack(sr.fn)
		sr.acc.EpochsFallback++
		sr.acc.FallbackCauses[cause]++
		sr.acc.EpochsSkipped += skip
		rr.rec.EpochFallback(cause.String(), skip)
		return rr.serialWindow(epochEnd + skip*cycleQuantum)
	}
	sr.gov.committed(sr.fn)
	sr.acc.EpochsCommitted++

	// Commit: publish overlays, account the scheduling rounds the serial
	// engine would have spent, replay observability events in serial
	// order, and apply thread outcomes.
	for _, c := range cands {
		sys.CommitScout(c)
		rr.rounds += sr.results[c].quanta
	}
	if rr.rounds > rr.maxQuanta {
		return errRegionBudget(rr.maxQuanta)
	}
	if rr.rec != nil {
		sr.replayEpoch(cands)
	}
	// Everything replayed so far is in committed serial order: let the
	// streaming layer flush it.
	rr.rec.EpochCommitted()
	for _, c := range cands {
		if sr.results[c].done {
			rr.done[c] = true
			rr.remaining--
		}
		if sr.results[c].barrier {
			rr.atBarrier[c] = true
		}
	}
	return nil
}

// runScouts drives the candidates' scout passes on min(workers,
// len(cands)) goroutines, the caller's included. Each worker claims
// candidates off a shared counter.
func (sr *specRegion) runScouts(cands []int, epochEnd int64, workers int) {
	nw := min(workers, len(cands))
	var next atomic.Int32
	work := func() {
		for {
			i := int(next.Add(1)) - 1
			if i >= len(cands) {
				return
			}
			sr.scoutOne(cands[i], epochEnd)
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < nw; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
}

// scoutOne runs one processor's thread speculatively until its clock leaves
// the epoch window, it finishes, parks at a barrier, or aborts. Quanta are
// counted exactly as the serial scheduler would (one round per StepCycles
// call).
func (sr *specRegion) scoutOne(c int, epochEnd int64) {
	res := &sr.results[c]
	th := sr.threads[c]
	var buf *obs.ProcBuffer
	if sr.bufs != nil {
		buf = sr.bufs[c]
	}
	for sr.sys.Clock(c) < epochEnd && !res.done && !res.barrier {
		res.quanta++
		if buf != nil {
			buf.BeginQuantum(sr.sys.Clock(c))
		}
		switch th.StepCycles(sr.quantum, cycleQuantum) {
		case bytecode.Running:
		case bytecode.Done:
			// Traps (including the gate's sentinel) re-execute in the
			// serial fallback so errors surface in serial order.
			if th.Err != nil {
				sr.sys.PoisonScout(c, memsim.AbortTrap)
			}
			res.done = true
		case bytecode.AtBarrier:
			res.barrier = true
		case bytecode.AtParCall:
			sr.sys.PoisonScout(c, memsim.AbortTrap)
		}
		if sr.sys.ScoutAborted(c) {
			return
		}
	}
	if buf != nil {
		buf.EndEpoch()
	}
}

// replayEpoch merges the candidates' buffered quanta by (start clock, proc
// id) — the order the serial scheduler provably executes them in — and
// replays their events into the recorder, synthesizing the QuantumSwitch
// stream the serial engine would have emitted.
func (sr *specRegion) replayEpoch(cands []int) {
	idx, bufs := sr.replayIdx, sr.bufs
	for _, c := range cands {
		idx[c] = 0
	}
	for {
		sel := -1
		var selStart int64
		for _, c := range cands {
			i := idx[c]
			if i >= bufs[c].NumQuanta() {
				continue
			}
			if s := bufs[c].QuantumStart(i); sel < 0 || s < selStart || (s == selStart && c < sel) {
				sel, selStart = c, s
			}
		}
		if sel < 0 {
			return
		}
		if sel != sr.lastSel {
			sr.rec.QuantumSwitch(sel)
			sr.lastSel = sel
		}
		bufs[sel].ReplayQuantum(idx[sel], sel, sr.rec)
		idx[sel]++
	}
}
