package memsim

// Scout mode is the memory-system half of the parallel execution engine
// (internal/exec). During a speculative epoch each armed processor's
// accesses run concurrently on separate host goroutines, under one
// invariant: the pass is READ-ONLY on all cross-processor-visible state.
// Shared structures (directory, backing store, bandwidth windows, page
// tables) are only read; every would-be write lands in a per-processor
// overlay, and the processor's own private state (caches, TLB, clock,
// stats) is mutated in place behind an undo journal. At the epoch
// barrier the executor validates that the scouts' shared-state footprints
// are pairwise disjoint — in which case any serial interleaving of the
// epoch's quanta produces exactly the trajectories the scouts computed,
// so committing the overlays is bit-identical to the serial engine — and
// otherwise rolls every scout back and re-runs the epoch serially.
//
// A scout aborts (poisoning only itself) whenever it hits an operation
// whose effect on other processors cannot be expressed as an overlay:
// invalidating sharers, cache-to-cache intervention, a page fault (first
// touch allocates), or any runtime call other than the barrier sentinel
// (the executor gates those). After an abort the processor's memory
// operations become no-ops; the executor notices, restores, and falls
// back.
//
// There is no scout copy of the cost walk. System.Access and the steps
// under it (tlb.access, reserve, evictL2, invalidateOthers) take the
// processor's *scoutCtx and, at the points where a scout differs, call the
// small methods below; every one of them is a no-op on a nil context, which
// is the serial engine.
//
// See DESIGN.md "Concurrency model" for the full protocol and the
// determinism argument.

import (
	"dsmdist/internal/obs"
)

// AbortReason says why a scout gave up on its epoch — or, for the two
// causes only the executor can see, why the epoch fell back although no
// scout's memory access aborted.
type AbortReason uint8

const (
	abortNone         AbortReason = iota
	AbortRTC                      // runtime call other than dsm_barrier
	AbortPageFault                // access to an unmapped page (first touch allocates)
	AbortInvalidation             // write needs to invalidate other sharers
	AbortIntervention             // miss would be serviced from another cache
	AbortTrap                     // the thread trapped or reached a nested doacross
	AbortValidation               // no scout aborted, but ValidateScouts refused the epoch
	NumAbortReasons               // array bound for per-cause tallies
)

var abortNames = [NumAbortReasons]string{
	"none", "rtcall", "pagefault", "invalidation", "intervention", "trap", "validation",
}

func (r AbortReason) String() string {
	if r < NumAbortReasons {
		return abortNames[r]
	}
	return "unknown"
}

// cacheJEntry records one overwritten cache slot (tag + excl) so an
// aborted scout can restore its own caches. Entries are replayed in
// reverse, so re-journaling a slot is harmless.
type cacheJEntry struct {
	c    *cache
	slot int32
	tag  int64
	excl bool
}

// tlbJEntry records one TLB refill: fifo[pos] held old (0 = empty) before
// the new page went in. That is the whole undo, because the membership
// table is a function of the fifo: slot[v] == i+1 exactly when fifo[i] == v.
type tlbJEntry struct {
	pos int
	old int64
}

// memOverlay holds a scout's speculative stores: an open-addressed,
// version-stamped hash table from word index to value. Version stamping
// makes Reset O(1); the table is scanned (ver match) at commit.
type memOverlay struct {
	keys []int64
	vals []uint64
	ver  []uint32
	cur  uint32
	n    int
	mask int64
}

func (o *memOverlay) init(size int64) {
	o.keys = make([]int64, size)
	o.vals = make([]uint64, size)
	o.ver = make([]uint32, size)
	o.mask = size - 1
	o.cur = 1
	o.n = 0
}

func (o *memOverlay) reset() {
	o.cur++
	o.n = 0
	if o.cur == 0 { // version wrapped: wipe stamps
		for i := range o.ver {
			o.ver[i] = 0
		}
		o.cur = 1
	}
}

func ovHash(wi int64) int64 {
	return int64(uint64(wi) * 0x9e3779b97f4a7c15 >> 33)
}

func (o *memOverlay) load(wi int64) (uint64, bool) {
	for h := ovHash(wi) & o.mask; o.ver[h] == o.cur; h = (h + 1) & o.mask {
		if o.keys[h] == wi {
			return o.vals[h], true
		}
	}
	return 0, false
}

func (o *memOverlay) store(wi int64, v uint64) {
	for h := ovHash(wi) & o.mask; ; h = (h + 1) & o.mask {
		if o.ver[h] != o.cur {
			o.ver[h] = o.cur
			o.keys[h] = wi
			o.vals[h] = v
			o.n++
			if int64(o.n)*4 > (o.mask+1)*3 {
				o.grow()
			}
			return
		}
		if o.keys[h] == wi {
			o.vals[h] = v
			return
		}
	}
}

func (o *memOverlay) grow() {
	old := *o
	o.init((o.mask + 1) * 2)
	for i := range old.ver {
		if old.ver[i] == old.cur {
			o.store(old.keys[i], old.vals[i])
		}
	}
}

// scoutCtx is the per-processor speculation context. It is owned by one
// scout goroutine for the duration of an epoch; the coordinator touches it
// only before the scouts start and after they join.
type scoutCtx struct {
	aborted bool
	reason  AbortReason
	buf     *obs.ProcBuffer // nil when no recorder is attached

	// Overlays over shared state (never written during the epoch).
	dirOv  map[int64]dirEntry // l2 line -> speculative entry; keys = touched-line set
	mem    memOverlay
	bwBook map[int64]int32 // node<<44|window -> lines booked
	bwHit  []bool          // per node: this scout booked service on it
	bwWait []bool          // per node: a booking saw a nonzero queuing delay
	pmiss  []int64         // vpages whose pageMiss counter must be bumped

	// Undo state for the processor's own private structures.
	statsSnap ProcStats
	clockSnap int64
	l0Slot    [l0Ways]int32
	l0Way     [l0Ways]int8
	l1LRU     []int8
	l2LRU     []int8
	tlbPos    int
	tlbLast   int64
	cacheJ    []cacheJEntry
	tlbJ      []tlbJEntry
}

func (sc *scoutCtx) abort(r AbortReason) {
	if !sc.aborted {
		sc.aborted = true
		sc.reason = r
	}
}

// jCache journals a cache slot about to be overwritten.
func (sc *scoutCtx) jCache(c *cache, slot int) {
	if sc != nil {
		sc.cacheJ = append(sc.cacheJ, cacheJEntry{c: c, slot: int32(slot), tag: c.tags[slot], excl: c.excl[slot]})
	}
}

// jCachePost journals an insert() or invalidate() that already happened:
// the previous occupant of slot was (tag=victim or -1, excl=victimExcl);
// invalid ways always carry excl=false, so the pair restores exactly.
func (sc *scoutCtx) jCachePost(c *cache, slot int, victim int64, victimExcl bool) {
	if sc != nil {
		sc.cacheJ = append(sc.cacheJ, cacheJEntry{c: c, slot: int32(slot), tag: victim, excl: victimExcl})
	}
}

// jTLB journals a TLB refill about to replace fifo[pos], which holds old.
func (sc *scoutCtx) jTLB(pos int, old int64) {
	if sc != nil {
		sc.tlbJ = append(sc.tlbJ, tlbJEntry{pos: pos, old: old})
	}
}

// openDir returns the directory entry of line for reading and updating: the
// shared entry itself on the serial path; under scout a copy in *buf, taken
// from the overlay if the scout already wrote the line, else from the shared
// (frozen) directory. Opening records no touch.
func (sc *scoutCtx) openDir(s *System, line int64, buf *dirEntry) *dirEntry {
	if sc == nil {
		return &s.dir[line]
	}
	d, ok := sc.dirOv[line]
	if !ok {
		d = s.dir[line]
	}
	*buf = d
	return buf
}

// closeDir publishes an updated entry: the serial path already wrote it in
// place; a scout stores the copy in its overlay, whose key set is the
// touched-line set ValidateScouts claims. Every scout step that changes an
// opened entry closes it or aborts.
func (sc *scoutCtx) closeDir(line int64, d *dirEntry) {
	if sc != nil {
		sc.dirOv[line] = *d
	}
}

func bwKey(node int, w int64) int64 { return int64(node)<<44 | w }

// noteBW records that the scout asked node for service, and whether the
// request had to wait (ValidateScouts needs both).
func (sc *scoutCtx) noteBW(node int, waited bool) {
	if sc != nil {
		sc.bwHit[node] = true
		if waited {
			sc.bwWait[node] = true
		}
	}
}

// loadMem reads a word as the scout sees it: its own speculative store if
// any, else the frozen backing store. (No other scout can have written a
// word this one is permitted to read: writing requires exclusivity, and a
// foreign reader would abort on the owner check or trip directory-claim
// validation.)
func (sc *scoutCtx) loadMem(s *System, addr int64) uint64 {
	if sc.mem.n > 0 {
		if v, ok := sc.mem.load(addr >> 3); ok {
			return v
		}
	}
	return s.mem[addr>>3]
}

// ArmScout puts processor p into scout mode for one epoch. buf, when
// non-nil, receives the observability events the serial engine would have
// emitted (the executor replays them in schedule order at commit).
func (s *System) ArmScout(p int, buf *obs.ProcBuffer) {
	pr := s.procs[p]
	sc := pr.scSpare
	if sc == nil {
		sc = &scoutCtx{
			dirOv:  make(map[int64]dirEntry),
			bwBook: make(map[int64]int32),
			bwHit:  make([]bool, len(s.bw)),
			bwWait: make([]bool, len(s.bw)),
			l1LRU:  make([]int8, len(pr.l1.lru)),
			l2LRU:  make([]int8, len(pr.l2.lru)),
		}
		sc.mem.init(1024)
		pr.scSpare = sc
	} else {
		clear(sc.dirOv)
		clear(sc.bwBook)
		for i := range sc.bwHit {
			sc.bwHit[i] = false
			sc.bwWait[i] = false
		}
		sc.mem.reset()
		sc.pmiss = sc.pmiss[:0]
		sc.cacheJ = sc.cacheJ[:0]
		sc.tlbJ = sc.tlbJ[:0]
		sc.aborted = false
		sc.reason = abortNone
	}
	sc.buf = buf
	if buf != nil {
		buf.Reset()
	}
	sc.statsSnap = pr.stats
	sc.clockSnap = pr.clock
	sc.l0Slot, sc.l0Way = pr.l0Slot, pr.l0Way
	copy(sc.l1LRU, pr.l1.lru)
	copy(sc.l2LRU, pr.l2.lru)
	sc.tlbPos, sc.tlbLast = pr.tlb.pos, pr.tlb.last
	pr.sc = sc
}

// ScoutArmed reports whether p is currently in scout mode (between
// ArmScout and Commit/AbortScout). The executor's runtime gate uses it to
// tell speculative quanta from ordinary serial execution.
func (s *System) ScoutArmed(p int) bool { return s.procs[p].sc != nil }

// ScoutAborted reports whether p's scout has poisoned its epoch.
func (s *System) ScoutAborted(p int) bool {
	sc := s.procs[p].sc
	return sc != nil && sc.aborted
}

// ScoutAbortReason returns why p's scout aborted, or 0 when it has not.
func (s *System) ScoutAbortReason(p int) AbortReason {
	if sc := s.procs[p].sc; sc != nil {
		return sc.reason
	}
	return abortNone
}

// PoisonScout is the executor's way to abort p's scout for a cause the
// memory system cannot see: a gated runtime call (AbortRTC) or a trapped
// thread (AbortTrap). The first cause recorded for an epoch sticks.
func (s *System) PoisonScout(p int, r AbortReason) {
	if sc := s.procs[p].sc; sc != nil {
		sc.abort(r)
	}
}

// AbortScout rolls processor p's private state back to the epoch start and
// leaves scout mode. Shared state was never written, so nothing else needs
// repair.
func (s *System) AbortScout(p int) {
	pr := s.procs[p]
	sc := pr.sc
	if sc == nil {
		return
	}
	pr.stats = sc.statsSnap
	pr.clock = sc.clockSnap
	pr.l0Slot, pr.l0Way = sc.l0Slot, sc.l0Way
	copy(pr.l1.lru, sc.l1LRU)
	copy(pr.l2.lru, sc.l2LRU)
	for i := len(sc.cacheJ) - 1; i >= 0; i-- {
		j := &sc.cacheJ[i]
		j.c.tags[j.slot] = j.tag
		j.c.excl[j.slot] = j.excl
	}
	for i := len(sc.tlbJ) - 1; i >= 0; i-- {
		t, j := pr.tlb, sc.tlbJ[i]
		t.slot[t.fifo[j.pos]] = 0
		t.fifo[j.pos] = j.old
		if j.old != 0 {
			t.slot[j.old] = uint16(j.pos) + 1
		}
	}
	pr.tlb.pos, pr.tlb.last = sc.tlbPos, sc.tlbLast
	pr.sc = nil
}

func (s *System) beginValidateEpoch() {
	s.scoutEpoch++
	if len(s.claim) < len(s.dir) {
		// Stamps of earlier epochs are dead, so a heap that grew gets a
		// fresh table; after a load that is once a run.
		s.claim = make([]int64, len(s.dir))
	}
}

// ValidateScouts checks that the armed scouts' shared-state footprints are
// pairwise disjoint, so their speculative trajectories match what any
// serial interleaving would have produced. It reports true when the epoch
// can be committed.
func (s *System) ValidateScouts(procs []int) bool {
	s.beginValidateEpoch()
	stampBase := s.scoutEpoch << 8

	// Directory lines must be touched by at most one scout: each line in a
	// scout's overlay is stamped into the claim table, and a line already
	// stamped by another scout this epoch is a conflict.
	for _, p := range procs {
		sc := s.procs[p].sc
		for line := range sc.dirOv {
			stamp := stampBase | int64(p+1)
			if prev := s.claim[line]; prev>>8 == s.scoutEpoch && prev != stamp {
				return false
			}
			s.claim[line] = stamp
		}
	}

	// Bandwidth: bookings on a node commute only when no booking on that
	// node waited (zero-delay reservations that all fit land identically
	// in any arrival order) — a wait means arrival order is observable.
	for n := range s.bw {
		scouts, waited := 0, false
		for _, p := range procs {
			sc := s.procs[p].sc
			if sc.bwHit[n] {
				scouts++
				waited = waited || sc.bwWait[n]
			}
		}
		if scouts > 1 && waited {
			return false
		}
	}
	// And the combined bookings per (node, window) must still fit under
	// the cap — all-zero-delay scouts each checked only their own share.
	if s.bwCap > 0 {
		if s.bwTotal == nil {
			s.bwTotal = make(map[int64]int32)
		}
		total := s.bwTotal
		clear(total)
		for _, p := range procs {
			for key, n := range s.procs[p].sc.bwBook {
				total[key] += n
			}
		}
		for key, n := range total {
			node := int(key >> 44)
			wk := key & (1<<44 - 1)
			idx := wk % bwRing
			var used int32
			if s.bw[node].epoch[idx] == wk {
				used = s.bw[node].used[idx]
			}
			if used+n > s.bwCap {
				return false
			}
		}
	}
	return true
}

// CommitScout publishes p's overlays into the shared state and leaves
// scout mode. Only valid after ValidateScouts approved the epoch.
func (s *System) CommitScout(p int) {
	pr := s.procs[p]
	sc := pr.sc
	if sc == nil {
		return
	}
	for line, d := range sc.dirOv {
		s.dir[line] = d
	}
	ov := &sc.mem
	if ov.n > 0 {
		for i, v := range ov.ver {
			if v == ov.cur {
				s.mem[ov.keys[i]] = ov.vals[i]
			}
		}
	}
	for key, n := range sc.bwBook {
		node := int(key >> 44)
		wk := key & (1<<44 - 1)
		idx := wk % bwRing
		b := &s.bw[node]
		if b.epoch[idx] != wk {
			b.epoch[idx] = wk
			b.used[idx] = 0
		}
		b.used[idx] += n
	}
	for _, vp := range sc.pmiss {
		s.pageMiss[vp]++
	}
	pr.sc = nil
}
