package memsim

import (
	"math/rand"
	"reflect"
	"testing"

	"dsmdist/internal/machine"
	"dsmdist/internal/ospage"
)

func newSys(t *testing.T, nprocs int) *System {
	t.Helper()
	cfg := machine.Tiny(nprocs)
	s, err := New(cfg, ospage.New(cfg))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// randomOps drives a mixed load/store sequence for proc p over [base,
// base+n*8) and returns the values loaded (so data movement is compared
// too).
func randomOps(s *System, rng *rand.Rand, p int, base int64, n int) []uint64 {
	var got []uint64
	for i := 0; i < 200; i++ {
		addr := base + int64(rng.Intn(n))*8
		if rng.Intn(3) == 0 {
			s.StoreWord(p, addr, uint64(i)<<16|uint64(p))
		} else {
			got = append(got, s.LoadWord(p, addr))
		}
	}
	return got
}

// TestScoutCommitMatchesSerial runs the same access sequence on a serial
// system and on a scouted-then-committed system and requires identical
// stats, clocks, loaded values, and subsequent behavior.
func TestScoutCommitMatchesSerial(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		serial := newSys(t, 2)
		scouted := newSys(t, 2)
		var base [2]int64
		for i, s := range []*System{serial, scouted} {
			base[i] = s.Alloc(8192, 8)
			// Map the pages up front: scouts abort on first touch.
			s.Pages.Place(base[i], base[i]+8192, 0, false)
			if base[0] != base[i] {
				t.Fatal("allocation mismatch")
			}
		}

		a := randomOps(serial, rand.New(rand.NewSource(seed)), 0, base[0], 128)

		scouted.ArmScout(0, nil)
		b := randomOps(scouted, rand.New(rand.NewSource(seed)), 0, base[1], 128)
		if scouted.ScoutAborted(0) {
			t.Fatalf("seed %d: scout aborted: %d", seed, scouted.ScoutAbortReason(0))
		}
		if !scouted.ValidateScouts([]int{0}) {
			t.Fatalf("seed %d: single scout failed validation", seed)
		}
		scouted.CommitScout(0)

		if !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d: loaded values diverge", seed)
		}
		checkSameState(t, serial, scouted, 2)

		// Post-commit behavior must match too (directory, bw ring, memory
		// all committed correctly): run more ops serially on both,
		// including the other processor to cross caches.
		for p := 0; p < 2; p++ {
			a = randomOps(serial, rand.New(rand.NewSource(seed+99)), p, base[0], 128)
			b = randomOps(scouted, rand.New(rand.NewSource(seed+99)), p, base[1], 128)
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("seed %d: post-commit values diverge on p%d", seed, p)
			}
		}
		checkSameState(t, serial, scouted, 2)
	}
}

// TestScoutAbortRestores arms a scout, runs ops, aborts, and requires the
// system to behave exactly like one that never speculated.
func TestScoutAbortRestores(t *testing.T) {
	clean := newSys(t, 2)
	dirty := newSys(t, 2)
	var base [2]int64
	for i, s := range []*System{clean, dirty} {
		base[i] = s.Alloc(8192, 8)
		s.Pages.Place(base[i], base[i]+8192, 0, false)
	}
	// Pre-warm both identically so the scout starts from non-trivial state.
	for _, s := range []*System{clean, dirty} {
		randomOps(s, rand.New(rand.NewSource(5)), 0, base[0], 128)
		randomOps(s, rand.New(rand.NewSource(6)), 1, base[0], 64)
	}
	checkSameState(t, clean, dirty, 2)

	dirty.ArmScout(0, nil)
	randomOps(dirty, rand.New(rand.NewSource(7)), 0, base[1], 128)
	dirty.AbortScout(0)

	checkSameState(t, clean, dirty, 2)
	for p := 0; p < 2; p++ {
		a := randomOps(clean, rand.New(rand.NewSource(11)), p, base[0], 128)
		b := randomOps(dirty, rand.New(rand.NewSource(11)), p, base[1], 128)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("post-abort values diverge on p%d", p)
		}
	}
	checkSameState(t, clean, dirty, 2)
}

// TestScoutConflictDetected has two scouts write the same line; validation
// must refuse the epoch.
func TestScoutConflictDetected(t *testing.T) {
	s := newSys(t, 2)
	base := s.Alloc(8192, 8)
	s.Pages.Place(base, base+8192, 0, false)
	s.ArmScout(0, nil)
	s.ArmScout(1, nil)
	s.StoreWord(0, base, 1)
	s.StoreWord(1, base+8, 2) // same L2 line
	if s.ScoutAborted(0) || s.ScoutAborted(1) {
		// Acceptable too (sharer-invalidation abort), but with cold
		// caches both writes are plain fills, which must conflict.
		return
	}
	if s.ValidateScouts([]int{0, 1}) {
		t.Fatal("overlapping-line epoch validated")
	}
	s.AbortScout(0)
	s.AbortScout(1)
}

// TestScoutDisjointScoutsCommit has two scouts touch disjoint pages; the
// epoch must validate and the result must match a serial interleaving.
func TestScoutDisjointScoutsCommit(t *testing.T) {
	serial := newSys(t, 4) // two nodes
	scouted := newSys(t, 4)
	var base int64
	for _, s := range []*System{serial, scouted} {
		base = s.Alloc(16384, 8)
		s.Pages.Place(base, base+8192, 0, false)
		s.Pages.Place(base+8192, base+16384, 1, false)
	}

	// Serial reference: p0 then p2 (disjoint, so order is irrelevant).
	randomOps(serial, rand.New(rand.NewSource(3)), 0, base, 128)
	randomOps(serial, rand.New(rand.NewSource(4)), 2, base+8192, 128)

	scouted.ArmScout(0, nil)
	scouted.ArmScout(2, nil)
	randomOps(scouted, rand.New(rand.NewSource(3)), 0, base, 128)
	randomOps(scouted, rand.New(rand.NewSource(4)), 2, base+8192, 128)
	if scouted.ScoutAborted(0) || scouted.ScoutAborted(2) {
		t.Fatal("disjoint scouts aborted")
	}
	if !scouted.ValidateScouts([]int{0, 2}) {
		t.Fatal("disjoint scouts failed validation")
	}
	scouted.CommitScout(0)
	scouted.CommitScout(2)
	checkSameState(t, serial, scouted, 4)
}

// TestScoutAbortsOnUnmappedPage checks the first-touch abort path.
func TestScoutAbortsOnUnmappedPage(t *testing.T) {
	s := newSys(t, 1)
	base := s.Alloc(8192, 8)
	s.ArmScout(0, nil)
	s.LoadWord(0, base)
	if !s.ScoutAborted(0) {
		t.Fatal("unmapped access did not abort the scout")
	}
	if s.ScoutAbortReason(0) != AbortPageFault {
		t.Fatalf("abort reason = %d, want page fault", s.ScoutAbortReason(0))
	}
	s.AbortScout(0)
	// The fallback (serial) touch must now work and map the page.
	s.LoadWord(0, base)
	if _, ok := s.Pages.Lookup(base); !ok {
		t.Fatal("serial fallback did not map the page")
	}
}

// checkSameState compares every piece of observable per-proc and shared
// state between two systems built identically.
func checkSameState(t *testing.T, a, b *System, nprocs int) {
	t.Helper()
	for p := 0; p < nprocs; p++ {
		if a.Stats(p) != b.Stats(p) {
			t.Fatalf("p%d stats diverge:\n a=%+v\n b=%+v", p, a.Stats(p), b.Stats(p))
		}
		if a.Clock(p) != b.Clock(p) {
			t.Fatalf("p%d clock %d vs %d", p, a.Clock(p), b.Clock(p))
		}
		pa, pb := a.procs[p], b.procs[p]
		if !reflect.DeepEqual(pa.l1.tags, pb.l1.tags) || !reflect.DeepEqual(pa.l1.excl, pb.l1.excl) ||
			!reflect.DeepEqual(pa.l1.lru, pb.l1.lru) {
			t.Fatalf("p%d L1 diverges", p)
		}
		if !reflect.DeepEqual(pa.l2.tags, pb.l2.tags) || !reflect.DeepEqual(pa.l2.excl, pb.l2.excl) ||
			!reflect.DeepEqual(pa.l2.lru, pb.l2.lru) {
			t.Fatalf("p%d L2 diverges", p)
		}
		if !reflect.DeepEqual(pa.tlb.fifo, pb.tlb.fifo) || pa.tlb.pos != pb.tlb.pos ||
			pa.tlb.last != pb.tlb.last {
			t.Fatalf("p%d TLB diverges", p)
		}
	}
	if !reflect.DeepEqual(a.dir, b.dir) {
		t.Fatal("directory diverges")
	}
	if !reflect.DeepEqual(a.mem, b.mem) {
		t.Fatal("memory diverges")
	}
	if !reflect.DeepEqual(a.bw, b.bw) {
		t.Fatal("bandwidth rings diverge")
	}
	if !reflect.DeepEqual(a.pageMiss, b.pageMiss) {
		t.Fatal("pageMiss diverges")
	}
}

// TestAbortReasonNames: every cause a fallback tally can hold has its own
// printable name (dsmrun's engine line and the /snapshot engine block key
// on them).
func TestAbortReasonNames(t *testing.T) {
	seen := map[string]AbortReason{}
	for r := AbortReason(0); r < NumAbortReasons; r++ {
		name := r.String()
		if name == "" || name == "unknown" {
			t.Errorf("reason %d has no name", r)
		}
		if prev, dup := seen[name]; dup {
			t.Errorf("reasons %d and %d share the name %q", prev, r, name)
		}
		seen[name] = r
	}
	if got := NumAbortReasons.String(); got != "unknown" {
		t.Errorf("out-of-range reason prints %q", got)
	}
}
