package main

import (
	"math"
	"time"

	"dsmdist/internal/exec"
	"dsmdist/internal/machine"
	"dsmdist/internal/memsim"
	"dsmdist/internal/ospage"
	"dsmdist/internal/xform"
)

// Calibration kernels: host nanoseconds per simulated event, measured by
// timing calls into the bytecode tiers and the memory system on inputs
// built so that one event dominates. The run-time model multiplies them by
// a workload's exact event counts and compares the sum with the measured
// exec.run_ms.

type calibration struct {
	nsInstrClassic, nsInstrCompiled                       float64
	l1Hit, l2Hit, localMiss, remoteMiss, tlbMiss, upgrade float64
	wordRun, wordLoop                                     float64
}

// scalarLoop is a Fortran loop nest over scalars only: every instruction
// it executes is dispatch, none reaches the memory system.
const scalarLoop = `      program scal
      integer i, j, k
      real*8 x, y
      x = 1.0
      y = 0.5
      k = 0
      do i = 1, 1500
        do j = 1, 1000
          k = k + j
          x = x*0.999 + y
        end do
      end do
      end
`

// nsPerInstr runs the scalar loop on one tier; the median of reps runs.
func nsPerInstr(tier exec.Tier, reps int) float64 {
	pt := simPoint{label: "scalar loop", sources: oneSource(scalarLoop), opt: xform.O3(),
		mach: scaled(1), policy: ospage.FirstTouch}
	var ns []float64
	for i := 0; i < reps; i++ {
		tr := newTracer()
		res, err := pt.staged(tr, nil, runOpts{engine: exec.EngineSerial, tier: tier})
		if err != nil || res.Instrs == 0 {
			return 0
		}
		m := map[string]float64{}
		stageTimes(tr, 1, m)
		ns = append(ns, m["exec.run_ms"]*1e6/float64(res.Instrs))
	}
	return median(ns)
}

// kernel times fn, which performs n accesses per call, for about d and
// returns ns per access.
func kernel(d time.Duration, n int, fn func()) float64 {
	fn() // warm the simulated caches and the host's
	var calls int
	t0 := time.Now()
	for time.Since(t0) < d {
		fn()
		calls++
	}
	return float64(time.Since(t0)) / float64(calls*n)
}

// calibrate runs every kernel; quick (the smoke scale) shortens them to a
// tenth.
func calibrate(quick bool) calibration {
	reps, d, rounds := 3, 30*time.Millisecond, 1500
	if quick {
		reps, d, rounds = 1, 3*time.Millisecond, 150
	}
	c := calibration{
		nsInstrClassic:  nsPerInstr(exec.TierClassic, reps),
		nsInstrCompiled: nsPerInstr(exec.TierCompiled, reps),
	}
	cfg := machine.Scaled(4) // 2 KB L1 / 32 B, 256 KB L2 / 128 B, 1 KB pages, 64 TLB entries, 2 nodes
	newSys := func() *memsim.System {
		sys, err := memsim.New(cfg, ospage.New(cfg))
		if err != nil {
			panic(err) // machine.Scaled(4) is a valid configuration
		}
		return sys
	}
	l1, l2, page := int64(cfg.L1LineSize), int64(cfg.L2LineSize), int64(cfg.PageBytes)
	sweep := func(sys *memsim.System, p int, base, bytes, stride int64) func() {
		return func() {
			for a := base; a < base+bytes; a += stride {
				sys.LoadWord(p, a)
			}
		}
	}

	// L1 hit: unit-stride words over 1 KB, resident in L1; three words in
	// four are answered by the L0 memo, as in a unit-stride program loop.
	sys := newSys()
	base := sys.Alloc(1<<10, page)
	c.l1Hit = kernel(d, 128, sweep(sys, 0, base, 1<<10, 8))

	// L2 hit: one word per L1 line over 32 KB — beyond L1, inside L2 and
	// inside the TLB's 64 KB reach.
	sys = newSys()
	base = sys.Alloc(32<<10, page)
	c.l2Hit = kernel(d, int(32<<10/l1), sweep(sys, 0, base, 32<<10, l1))

	// TLB miss: one word per page over 128 pages, offset so the lines
	// spread over the L1 sets: every access misses L1 and the TLB and
	// hits L2, so its cost over an L2 hit is the TLB refill.
	sys = newSys()
	base = sys.Alloc(128*page, page)
	tlbKernel := kernel(d, 128, sweep(sys, 0, base, 128*page, page+l1))
	c.tlbMiss = math.Max(tlbKernel-c.l2Hit, 0)

	// Local and remote L2 miss: one word per L2 line over 4 MB, 16 times
	// the L2 — a sweep of loads, then a sweep of stores, so that half the
	// evictions write a dirty line back. One access in eight also misses
	// the TLB; that part is subtracted.
	miss := func(homeNode int) float64 {
		sys := newSys()
		base := sys.Alloc(4<<20, page)
		sys.Pages.Place(base, base+4<<20, homeNode, false)
		loads := sweep(sys, 0, base, 4<<20, l2)
		k := kernel(d, 2*int(4<<20/l2), func() {
			loads()
			for a := base; a < base+4<<20; a += l2 {
				sys.StoreWord(0, a, 1)
			}
		})
		return math.Max(k-c.tlbMiss*float64(l2)/float64(page), 0)
	}
	c.localMiss = miss(0)
	c.remoteMiss = miss(1)

	// Upgrade: processors 1 and 0 read 128 L2 lines, then processor 0
	// writes them; only the writes are timed.
	sys = newSys()
	base = sys.Alloc(128*l2, page)
	var storeNS, stores int64
	for round := 0; round < rounds; round++ {
		sweep(sys, 1, base, 128*l2, l2)()
		sweep(sys, 0, base, 128*l2, l2)()
		t0 := time.Now()
		for a := base; a < base+128*l2; a += l2 {
			sys.StoreWord(0, a, 1)
		}
		storeNS += int64(time.Since(t0))
		stores += 128
	}
	c.upgrade = float64(storeNS) / float64(stores)

	// 64-word unit-stride runs over 32 KB: batched, and the same
	// addresses word by word.
	sys = newSys()
	base = sys.Alloc(32<<10, page)
	c.wordRun = kernel(d, 32<<10/8, func() {
		for a := base; a < base+32<<10; a += 64 * 8 {
			sys.AccessRun(0, a, 8, 64, false, nil)
		}
	})
	sys = newSys()
	base = sys.Alloc(32<<10, page)
	c.wordLoop = kernel(d, 32<<10/8, sweep(sys, 0, base, 32<<10, 8))
	return c
}

func (c calibration) metrics(m map[string]float64) {
	m["bytecode.ns_per_instr_classic"] = c.nsInstrClassic
	m["bytecode.ns_per_instr_compiled"] = c.nsInstrCompiled
	m["memsim.ns_per_l1_hit"] = c.l1Hit
	m["memsim.ns_per_l2_hit"] = c.l2Hit
	m["memsim.ns_per_local_miss"] = c.localMiss
	m["memsim.ns_per_remote_miss"] = c.remoteMiss
	m["memsim.ns_per_tlb_miss"] = c.tlbMiss
	m["memsim.ns_per_upgrade"] = c.upgrade
	m["memsim.ns_per_word_run"] = c.wordRun
	m["memsim.ns_per_word_loop"] = c.wordLoop
}

// model predicts a pass's run time from its exact counts and the calibrated
// costs, and reports the dispatch and memory-walk parts as shares of the
// measured run time, with the prediction's error.
func (c calibration) model(n simCounts, runMS float64, tier exec.Tier, m map[string]float64) {
	if runMS <= 0 {
		return
	}
	nsInstr := c.nsInstrCompiled
	if tier == exec.TierClassic {
		nsInstr = c.nsInstrClassic
	}
	s := n.Stats
	dispatch := float64(n.Instrs) * nsInstr
	walk := float64(s.Loads+s.Stores-s.L1Miss)*c.l1Hit +
		float64(s.L1Miss-s.L2Miss)*c.l2Hit +
		float64(s.L2MissLocal)*c.localMiss +
		float64(s.L2MissRemote)*c.remoteMiss +
		float64(s.TLBMiss)*c.tlbMiss +
		float64(s.Upgrades)*c.upgrade
	runNS := runMS * 1e6
	m["model.dispatch_pct"] = pct(dispatch, runNS)
	m["model.memwalk_pct"] = pct(walk, runNS)
	m["model.residual_pct"] = pct(math.Abs(dispatch+walk-runNS), runNS)
}
