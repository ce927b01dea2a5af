package exec

import (
	"encoding/json"
	"testing"

	"dsmdist/internal/bytecode"
	"dsmdist/internal/machine"
	"dsmdist/internal/memsim"
	"dsmdist/internal/obs"
	"dsmdist/internal/ospage"
	"dsmdist/internal/rtl"
)

// conflictSrc makes every processor load and store the same cache line for
// the whole region, so no epoch can ever commit.
const conflictSrc = `
      program p
      integer n
      parameter (n = 64)
      real*8 a(4)
      integer i, k
c$doacross local(i, k) shared(a)
      do i = 1, n
        do k = 1, 15000
          a(1) = a(1) + 1.0d0
        end do
      end do
      end
`

// disjointSrc gives each of 8 processors one column of a distributed array
// and sweeps it many times: after the cold misses of the first sweep
// nothing a scout does is visible to another, and nothing new is touched.
const disjointSrc = `
      program p
      integer n, m
      parameter (n = 64, m = 8)
      real*8 a(n, m)
c$distribute a(*, block)
      integer i, j, it
c$doacross local(i, j, it) shared(a) affinity(j) = data(a(1, j))
      do j = 1, m
        do it = 1, 500
          do i = 1, n
            a(i, j) = a(i, j) * 0.5d0 + dble(i + j)
          end do
        end do
      end do
      end
`

// timeStepSrc is the shape of a real solver: an iteration loop around two
// doacross loops, one that commits (disjointSrc's sweep) and one that never
// can (conflictSrc's shared line).
const timeStepSrc = `
      program p
      integer n, m
      parameter (n = 64, m = 8)
      real*8 a(n, m), s(4)
c$distribute a(*, block)
      integer i, j, it, k
      do it = 1, 12
c$doacross local(i, j, k) shared(a) affinity(j) = data(a(1, j))
      do j = 1, m
        do k = 1, 40
          do i = 1, n
            a(i, j) = a(i, j) * 0.5d0 + dble(i + j)
          end do
        end do
      end do
c$doacross local(i, k) shared(s)
      do i = 1, m
        do k = 1, 3000
          s(1) = s(1) + 1.0d0
        end do
      end do
      end do
      end
`

// backInSrc is one doacross entered 10 times: the first entry is
// conflictSrc's shared line, the others disjointSrc's sweep, each preceded by
// a serial loop that pulls the whole array into processor 0's cache.
const backInSrc = `
      program p
      integer n, m
      parameter (n = 64, m = 8)
      real*8 a(n, m), s(4)
c$distribute a(*, block)
      integer i, j, it, k
      do it = 1, 10
      do j = 1, m
        do i = 1, n
          a(i, j) = a(i, j) + 1.0d0
        end do
      end do
c$doacross local(i, j, k) shared(a, s, it) affinity(j) = data(a(1, j))
      do j = 1, m
        if (it .eq. 1) then
          do k = 1, 15000
            s(1) = s(1) + 1.0d0
          end do
        else
          do k = 1, 40
            do i = 1, n
              a(i, j) = a(i, j) * 0.5d0 + dble(i + j)
            end do
          end do
        end if
      end do
      end do
      end
`

// epochCounts is everything the governor's determinism covers.
type epochCounts struct {
	committed, fallback, skipped int64
	causes                       [memsim.NumAbortReasons]int64
}

func countsOf(r *Result) epochCounts {
	return epochCounts{r.EpochsCommitted, r.EpochsFallback, r.EpochsSkipped, r.FallbackCauses}
}

// TestGovernorCountsReproducible: the governor reads simulated outcomes
// only, so committed/fallback/skipped (and the per-cause split) repeat
// exactly from run to run and across worker counts, and the recorder's
// snapshot reports the same numbers.
func TestGovernorCountsReproducible(t *testing.T) {
	var want epochCounts
	for i, workers := range []int{2, 4, 2, 4} {
		img := compileSrc(t, engineSrc)
		cfg := machine.Tiny(16)
		rec := obs.NewRecorder(cfg)
		rec.EnableSeries(50000, nil)
		res, err := Run(img.Res, cfg, Options{
			Policy: ospage.FirstTouch, Rec: rec, Engine: EngineParallel, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		got := countsOf(res)
		if i == 0 {
			want = got
			if got.committed == 0 || got.fallback == 0 || got.skipped == 0 {
				t.Fatalf("engineSrc should commit, fall back and sit out; got %+v", got)
			}
		} else if got != want {
			t.Errorf("run %d (workers %d): epoch counts %+v, first run had %+v", i, workers, got, want)
		}
		var sum int64
		for _, n := range got.causes {
			sum += n
		}
		if sum != got.fallback {
			t.Errorf("per-cause tally sums to %d, EpochsFallback is %d", sum, got.fallback)
		}

		var snap obs.Snapshot
		if err := json.Unmarshal(rec.SnapshotJSON(), &snap); err != nil {
			t.Fatal(err)
		}
		e := snap.Engine
		if e.EpochsCommitted != got.committed || e.EpochsFallback != got.fallback || e.EpochsSkipped != got.skipped {
			t.Errorf("snapshot engine block %+v, result %+v", e, got)
		}
		for cause, n := range got.causes {
			if name := memsim.AbortReason(cause).String(); e.FallbackCauses[name] != n {
				t.Errorf("snapshot fallback_causes[%s] = %d, result has %d", name, e.FallbackCauses[name], n)
			}
		}
	}
}

// TestGovernorBacksOffOnConflict: a program whose epochs can never commit
// is speculated once per doubling step and then once per maxSitOut+1
// epochs, not once per epoch.
func TestGovernorBacksOffOnConflict(t *testing.T) {
	s, st := runEngine(t, conflictSrc, 8, EngineSerial, 0)
	p, pt := runEngine(t, conflictSrc, 8, EngineParallel, 4)
	checkIdentical(t, "conflict", s, p, st, pt)

	if p.EpochsCommitted != 0 {
		t.Errorf("%d epochs committed although every processor writes one line", p.EpochsCommitted)
	}
	epochs := p.EpochsFallback + p.EpochsSkipped
	if epochs < 4*maxSitOut {
		t.Fatalf("only %d epochs: too short a run to show the cap", epochs)
	}
	// 1+2+...+maxSitOut takes log2(maxSitOut)+1 fallbacks; the +1 is the
	// sit-out the region's end cuts short.
	doubling := int64(1)
	for n := 1; n < maxSitOut; n *= 2 {
		doubling++
	}
	if limit := doubling + epochs/(maxSitOut+1) + 1; p.EpochsFallback > limit {
		t.Errorf("%d speculated epochs out of %d; the governor should allow at most %d",
			p.EpochsFallback, epochs, limit)
	}
}

// TestGovernorLeavesDisjointWorkAlone: processors that stay inside their
// own portions commit, and a run that commits is not made to sit out.
func TestGovernorLeavesDisjointWorkAlone(t *testing.T) {
	s, st := runEngine(t, disjointSrc, 8, EngineSerial, 0)
	p, pt := runEngine(t, disjointSrc, 8, EngineParallel, 4)
	checkIdentical(t, "disjoint", s, p, st, pt)

	epochs := p.EpochsCommitted + p.EpochsFallback + p.EpochsSkipped
	if epochs < 40 {
		t.Fatalf("only %d epochs: too short a run to mean anything", epochs)
	}
	if p.EpochsCommitted*10 < epochs*9 {
		t.Errorf("%d of %d epochs committed (%d fell back: %s; %d sat out), want at least 90%%",
			p.EpochsCommitted, epochs, p.EpochsFallback, p.FallbackBreakdown(), p.EpochsSkipped)
	}
	// The cold start falls back (first touch of the stacks, the burst of
	// compulsory misses); each of those must stay an isolated one-epoch
	// sit-out, never an escalation.
	if p.EpochsSkipped > p.EpochsFallback {
		t.Errorf("sat out %d epochs after %d fallbacks (%s): the governor escalated on a program that never conflicts",
			p.EpochsSkipped, p.EpochsFallback, p.FallbackBreakdown())
	}
}

// TestGovernorLearnsPerRegion: what one doacross taught the governor is
// kept for that doacross. The conflicting loop is re-entered 12 times with
// the committing loop in between; its back-off must survive those commits
// (two doomed epochs per entry once learned) instead of being re-learned
// from 1 at every entry (three per entry here), and the committing loop must
// go on committing.
func TestGovernorLearnsPerRegion(t *testing.T) {
	s, st := runEngine(t, timeStepSrc, 8, EngineSerial, 0)
	p, pt := runEngine(t, timeStepSrc, 8, EngineParallel, 4)
	checkIdentical(t, "time step", s, p, st, pt)

	const entries = 12
	if limit := int64(2*entries + 5); p.EpochsFallback > limit {
		t.Errorf("%d fallbacks (%s) over %d entries; per-region learning allows at most %d",
			p.EpochsFallback, p.FallbackBreakdown(), entries, limit)
	}
	if p.EpochsCommitted < 10*entries {
		t.Errorf("only %d epochs committed over %d entries of a loop that never conflicts",
			p.EpochsCommitted, entries)
	}
}

// TestGovernorLetsARegionBackIn: the opposite direction. The doacross's
// first entry can never commit and ends on a long sit-out; every later
// entry opens with a fallback (the serial loop before it left the data dirty
// in processor 0's cache) but could commit after it, and is shorter than
// that sit-out. Carried whole, the first entry's level would sit every later
// entry out from start to finish; discounted at each entry boundary it
// wears off, and the later entries commit.
func TestGovernorLetsARegionBackIn(t *testing.T) {
	s, st := runEngine(t, backInSrc, 8, EngineSerial, 0)
	p, pt := runEngine(t, backInSrc, 8, EngineParallel, 4)
	checkIdentical(t, "back in", s, p, st, pt)

	// 98 as written; 0 when the level is carried whole or merely not doubled.
	if p.EpochsCommitted < 60 {
		t.Errorf("%d epochs committed (%d fell back: %s; %d sat out): the entries that can commit were sat out",
			p.EpochsCommitted, p.EpochsFallback, p.FallbackBreakdown(), p.EpochsSkipped)
	}
}

// TestCommittedEpochAllocations pins the per-epoch garbage: in steady state
// a committed epoch allocates only what its goroutine fan-out needs — no
// replay index, no validation map, no scout context.
func TestCommittedEpochAllocations(t *testing.T) {
	img := compileSrc(t, disjointSrc)
	cfg := machine.Tiny(8)
	rec := obs.NewRecorder(cfg)
	rt, err := rtl.LoadObs(img.Res, cfg, ospage.FirstTouch, rec)
	if err != nil {
		t.Fatal(err)
	}
	costs := bytecode.NewCosts(cfg)
	rt.Prog.Finalize()
	serial := bytecode.NewThread(0, rt.Sys, rt.Prog, rt, costs, rt.Prog.Main, nil,
		rt.StackBase[0], rt.StackEnd[0])
	for serial.Step(2000) != bytecode.AtParCall {
	}

	acc := &Result{RT: rt}
	sr := newSpecRegion(rt, costs, serial, 2000, 1<<34, 2, governor{}, acc)
	step := func() {
		if err := sr.epoch(); err != nil {
			t.Fatal(err)
		}
	}
	for acc.EpochsCommitted < 40 {
		step()
	}
	before := *acc
	const runs = 20
	allocs := testing.AllocsPerRun(runs, step)
	// AllocsPerRun makes one warm-up call of its own.
	if got := acc.EpochsCommitted - before.EpochsCommitted; got != runs+1 || acc.EpochsFallback != before.EpochsFallback {
		t.Fatalf("measured epochs did not all commit: %d committed, %d fell back",
			got, acc.EpochsFallback-before.EpochsFallback)
	}
	if sr.remaining == 0 {
		t.Fatal("region finished inside the measurement")
	}
	// One worker goroutine and the closures and counters it shares.
	if allocs > 4 {
		t.Errorf("a steady-state committed epoch allocates %.0f objects, want at most 4", allocs)
	}
}
