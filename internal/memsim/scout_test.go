package memsim

import (
	"math/rand"
	"reflect"
	"testing"

	"dsmdist/internal/machine"
	"dsmdist/internal/obs"
	"dsmdist/internal/ospage"
)

// regionWords is the scout tests' 8 KB footprint in words: twice Tiny's L2
// and four times its TLB reach, so random ops over it evict from every
// level and the scout journals all get exercised.
const regionWords = 1024

func newSys(t *testing.T, nprocs int) *System {
	t.Helper()
	cfg := machine.Tiny(nprocs)
	s, err := New(cfg, ospage.New(cfg))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// randomOps drives a mixed sequence of word and run accesses for proc p
// over [base, base+n*8) and returns the values loaded (so data movement is
// compared too). Runs draw their stride from repeat, unit, L1-line-
// straddling (Tiny has 32 B lines) and descending, with and without
// per-word pre charges.
func randomOps(s *System, rng *rand.Rand, p int, base int64, n int) []uint64 {
	var got []uint64
	strides := []int64{0, 8, 24, 40, -8, -24}
	for i := 0; i < 200; i++ {
		word := rng.Intn(n)
		addr := base + int64(word)*8
		op := rng.Intn(6)
		if op < 3 {
			if op == 0 {
				s.StoreWord(p, addr, uint64(i)<<16|uint64(p))
			} else {
				got = append(got, s.LoadWord(p, addr))
			}
			continue
		}
		count := 1 + rng.Intn(12)
		stride := strides[rng.Intn(len(strides))]
		// Slide the run so that both ends stay inside the range.
		if end := word + (count-1)*int(stride/8); end < 0 {
			addr -= int64(end) * 8
		} else if end >= n {
			addr -= int64(end-n+1) * 8
		}
		var pre []int64
		if rng.Intn(2) == 0 {
			pre = make([]int64, count)
			for j := range pre {
				pre[j] = int64(rng.Intn(5))
			}
		}
		vals := make([]uint64, count)
		switch op {
		case 3:
			for j := range vals {
				vals[j] = uint64(i)<<16 | uint64(j)<<8 | uint64(p)
			}
			s.StoreRun(p, addr, stride, count, pre, vals)
		case 4:
			s.LoadRun(p, addr, stride, count, pre, vals)
			got = append(got, vals...)
		default:
			s.AccessRun(p, addr, stride, count, rng.Intn(2) == 0, pre)
		}
	}
	return got
}

// observe attaches a tracing recorder that knows one array over [lo, hi),
// so heat attribution and event order are compared along with the counts.
func observe(s *System, lo, hi int64) *obs.Recorder {
	rec := obs.NewRecorder(s.Cfg)
	rec.EnableTrace(1 << 16)
	rec.RegisterArray("a", [][2]int64{{lo, hi}})
	s.SetRecorder(rec)
	return rec
}

func checkSameRecorder(t *testing.T, a, b *obs.Recorder) {
	t.Helper()
	if !reflect.DeepEqual(a.Counts(), b.Counts()) {
		t.Fatalf("recorder counts diverge:\n a=%v\n b=%v", a.Counts(), b.Counts())
	}
	if !reflect.DeepEqual(a.ProcObsAll(), b.ProcObsAll()) || a.Now() != b.Now() {
		t.Fatal("recorder per-proc tallies diverge")
	}
	if !reflect.DeepEqual(a.ArrayHeat("a"), b.ArrayHeat("a")) {
		t.Fatal("recorder heat map diverges")
	}
	if !reflect.DeepEqual(a.TraceEvents(), b.TraceEvents()) {
		t.Fatal("recorder trace events diverge")
	}
}

// TestScoutCommitMatchesSerial runs the same access sequence on a serial
// system and on a scouted-then-committed system and requires identical
// stats, clocks, loaded values, and subsequent behavior. One seed runs with
// recorders attached: the scout's events go to a ProcBuffer, and replaying
// it at commit must leave the recorder exactly as the serial run left its.
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
		var buf *obs.ProcBuffer
		var serialRec, scoutedRec *obs.Recorder
		if seed == 42 {
			buf = obs.NewProcBuffer()
			serialRec = observe(serial, base[0], base[0]+8192)
			scoutedRec = observe(scouted, base[1], base[1]+8192)
		}

		a := randomOps(serial, rand.New(rand.NewSource(seed)), 0, base[0], regionWords)

		scouted.ArmScout(0, buf)
		if buf != nil {
			buf.BeginQuantum(scouted.Clock(0))
		}
		b := randomOps(scouted, rand.New(rand.NewSource(seed)), 0, base[1], regionWords)
		if scouted.ScoutAborted(0) {
			t.Fatalf("seed %d: scout aborted: %d", seed, scouted.ScoutAbortReason(0))
		}
		if !scouted.ValidateScouts([]int{0}) {
			t.Fatalf("seed %d: single scout failed validation", seed)
		}
		scouted.CommitScout(0)
		if buf != nil {
			if scoutedRec.Count(obs.KL1Miss) != 0 {
				t.Fatal("scout wrote to the recorder directly")
			}
			buf.EndEpoch()
			buf.ReplayQuantum(0, 0, scoutedRec)
			checkSameRecorder(t, serialRec, scoutedRec)
		}

		if !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d: loaded values diverge", seed)
		}
		checkSameState(t, serial, scouted, 2)

		// Post-commit behavior must match too (directory, bw ring, memory
		// all committed correctly): run more ops serially on both,
		// including the other processor to cross caches.
		for p := 0; p < 2; p++ {
			a = randomOps(serial, rand.New(rand.NewSource(seed+99)), p, base[0], regionWords)
			b = randomOps(scouted, rand.New(rand.NewSource(seed+99)), p, base[1], regionWords)
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("seed %d: post-commit values diverge on p%d", seed, p)
			}
		}
		checkSameState(t, serial, scouted, 2)
		if buf != nil {
			checkSameRecorder(t, serialRec, scoutedRec)
		}
	}
}

// TestScoutAbortRestores arms a scout, runs ops, aborts, and requires the
// system — and its recorder, which must never see the discarded epoch's
// events — to behave exactly like one that never speculated.
func TestScoutAbortRestores(t *testing.T) {
	clean := newSys(t, 2)
	dirty := newSys(t, 2)
	var base [2]int64
	for i, s := range []*System{clean, dirty} {
		base[i] = s.Alloc(8192, 8)
		s.Pages.Place(base[i], base[i]+8192, 0, false)
	}
	cleanRec := observe(clean, base[0], base[0]+8192)
	dirtyRec := observe(dirty, base[1], base[1]+8192)
	// Pre-warm both identically so the scout starts from non-trivial state.
	for _, s := range []*System{clean, dirty} {
		randomOps(s, rand.New(rand.NewSource(5)), 0, base[0], regionWords)
		randomOps(s, rand.New(rand.NewSource(6)), 1, base[0], 64)
	}
	checkSameState(t, clean, dirty, 2)

	buf := obs.NewProcBuffer()
	dirty.ArmScout(0, buf)
	buf.BeginQuantum(dirty.Clock(0))
	// The scout stays in the half p1 never touched, so it runs the whole
	// sequence (evictions and all) instead of aborting on a shared line.
	randomOps(dirty, rand.New(rand.NewSource(7)), 0, base[1]+regionWords*4, regionWords/2)
	if dirty.ScoutAborted(0) {
		t.Fatalf("scout aborted on its own (%v)", dirty.ScoutAbortReason(0))
	}
	dirty.AbortScout(0)

	checkSameState(t, clean, dirty, 2)
	checkSameRecorder(t, cleanRec, dirtyRec)
	for p := 0; p < 2; p++ {
		a := randomOps(clean, rand.New(rand.NewSource(11)), p, base[0], regionWords)
		b := randomOps(dirty, rand.New(rand.NewSource(11)), p, base[1], regionWords)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("post-abort values diverge on p%d", p)
		}
	}
	checkSameState(t, clean, dirty, 2)
	checkSameRecorder(t, cleanRec, dirtyRec)
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
	randomOps(serial, rand.New(rand.NewSource(3)), 0, base, regionWords)
	randomOps(serial, rand.New(rand.NewSource(4)), 2, base+8192, regionWords)

	scouted.ArmScout(0, nil)
	scouted.ArmScout(2, nil)
	randomOps(scouted, rand.New(rand.NewSource(3)), 0, base, regionWords)
	randomOps(scouted, rand.New(rand.NewSource(4)), 2, base+8192, regionWords)
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

// TestScoutRunAbortsMidRun pins the run APIs' contract when word k of a run
// is the one that aborts the scout (here: it lands on an unmapped page):
// words before k behave as in the word loop, word k and everything after
// it store nothing and load zero, and AbortScout restores the state.
func TestScoutRunAbortsMidRun(t *testing.T) {
	clean := newSys(t, 1)
	dirty := newSys(t, 1)
	page := int64(clean.Cfg.PageBytes)
	const count, k = 8, 3
	var start int64
	for _, s := range []*System{clean, dirty} {
		base := s.Alloc(2*page, page)
		s.Pages.Place(base, base+page, 0, false) // second page stays unmapped
		start = base + page - k*8
		for i := int64(0); i < count; i++ {
			s.Poke(start+i*8, 100+uint64(i))
		}
		s.LoadWord(0, base) // a warm line, so the undo has something to keep
	}
	pre := []int64{1, 0, 2, 0, 3, 0, 1, 1}

	dirty.ArmScout(0, nil)
	dirty.StoreRun(0, start, 8, count, pre, []uint64{1, 2, 3, 4, 5, 6, 7, 8})
	if dirty.ScoutAbortReason(0) != AbortPageFault {
		t.Fatalf("store run: abort reason = %v, want page fault", dirty.ScoutAbortReason(0))
	}
	for i := int64(0); i < count; i++ {
		v, ok := dirty.procs[0].sc.mem.load((start + i*8) >> 3)
		if want := i < k; ok != want || (ok && v != uint64(i)+1) {
			t.Errorf("store run word %d: overlay holds (%d, %v), want stored=%v", i, v, ok, want)
		}
	}
	dirty.AbortScout(0)
	checkSameState(t, clean, dirty, 1)

	dirty.ArmScout(0, nil)
	out := []uint64{9, 9, 9, 9, 9, 9, 9, 9}
	dirty.LoadRun(0, start, 8, count, pre, out)
	if !dirty.ScoutAborted(0) {
		t.Fatal("load run across an unmapped page did not abort the scout")
	}
	if want := []uint64{100, 101, 102, 0, 0, 0, 0, 0}; !reflect.DeepEqual(out, want) {
		t.Errorf("load run gathered %v, want %v", out, want)
	}
	dirty.AbortScout(0)
	checkSameState(t, clean, dirty, 1)
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
		// The membership tables may have grown differently; absent is 0.
		for vp := 0; vp < len(pa.tlb.slot) || vp < len(pb.tlb.slot); vp++ {
			var sa, sb uint16
			if vp < len(pa.tlb.slot) {
				sa = pa.tlb.slot[vp]
			}
			if vp < len(pb.tlb.slot) {
				sb = pb.tlb.slot[vp]
			}
			if sa != sb {
				t.Fatalf("p%d TLB membership of page %d: %d vs %d", p, vp, sa, sb)
			}
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
