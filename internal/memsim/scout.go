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

type tlbSlotJEntry struct {
	vpage int64
	val   uint16
}

type tlbFifoJEntry struct {
	idx int
	val int64
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
	tlbSlotJ  []tlbSlotJEntry
	tlbFifoJ  []tlbFifoJEntry
}

func (sc *scoutCtx) abort(r AbortReason) {
	if !sc.aborted {
		sc.aborted = true
		sc.reason = r
	}
}

func (sc *scoutCtx) jCache(c *cache, slot int) {
	sc.cacheJ = append(sc.cacheJ, cacheJEntry{c: c, slot: int32(slot), tag: c.tags[slot], excl: c.excl[slot]})
}

// jCachePost journals an insert() that already happened: the previous
// occupant of slot was (tag=victim or -1, excl=victimExcl); invalid ways
// always carry excl=false, so the pair restores exactly.
func (sc *scoutCtx) jCachePost(c *cache, slot int, victim int64, victimExcl bool) {
	sc.cacheJ = append(sc.cacheJ, cacheJEntry{c: c, slot: int32(slot), tag: victim, excl: victimExcl})
}

// invalidate mirrors cache.invalidate with journaling.
func (sc *scoutCtx) invalidate(c *cache, line int64) {
	if s := c.lookup(line); s >= 0 {
		sc.jCache(c, s)
		c.tags[s] = -1
		c.excl[s] = false
	}
}

// dirRead returns the scout's view of a directory entry without recording
// a touch: the overlay if present, else the shared (frozen) entry.
func (sc *scoutCtx) dirRead(s *System, line int64) dirEntry {
	if d, ok := sc.dirOv[line]; ok {
		return d
	}
	return s.dir[line]
}

func (sc *scoutCtx) dirWrite(line int64, d dirEntry) {
	sc.dirOv[line] = d
}

func bwKey(node int, w int64) int64 { return int64(node)<<44 | w }

// reserve mirrors System.reserve against the frozen shared ring plus this
// scout's own bookings. Stale ring slots (epoch mismatch) read as empty,
// exactly as the serial path would reset them before booking.
func (sc *scoutCtx) reserve(s *System, node int, t int64) int64 {
	if s.bwCap <= 0 {
		return 0
	}
	b := &s.bw[node]
	w := t / s.bwWindow
	sc.bwHit[node] = true
	for k := 0; k < bwRing; k++ {
		wk := w + int64(k)
		idx := wk % bwRing
		var used int32
		if b.epoch[idx] == wk {
			used = b.used[idx]
		}
		key := bwKey(node, wk)
		used += sc.bwBook[key]
		if used < s.bwCap {
			sc.bwBook[key]++
			if k == 0 {
				return 0
			}
			sc.bwWait[node] = true
			return wk*s.bwWindow - t
		}
	}
	sc.bwWait[node] = true
	return int64(bwRing) * s.bwWindow
}

// tlbAccess mirrors tlb.access with journaling. Growth of the membership
// table needs no undo: new cells are zero, and zero means absent.
func (sc *scoutCtx) tlbAccess(t *tlb, vpage int64) bool {
	if vpage == t.last && !t.noMemo {
		return true
	}
	if vpage < int64(len(t.slot)) && t.slot[vpage] != 0 {
		t.last = vpage
		return true
	}
	if old := t.fifo[t.pos]; old != 0 {
		sc.tlbSlotJ = append(sc.tlbSlotJ, tlbSlotJEntry{vpage: old, val: t.slot[old]})
		t.slot[old] = 0
		if old == t.last {
			t.last = 0
		}
	}
	if vpage >= int64(len(t.slot)) {
		grown := make([]uint16, vpage+vpage/4+1)
		copy(grown, t.slot)
		t.slot = grown
	}
	sc.tlbFifoJ = append(sc.tlbFifoJ, tlbFifoJEntry{idx: t.pos, val: t.fifo[t.pos]})
	sc.tlbSlotJ = append(sc.tlbSlotJ, tlbSlotJEntry{vpage: vpage, val: t.slot[vpage]})
	t.fifo[t.pos] = vpage
	t.slot[vpage] = uint16(t.pos) + 1
	t.last = vpage
	t.pos++
	if t.pos == len(t.fifo) {
		t.pos = 0
	}
	return false
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
		sc.tlbSlotJ = sc.tlbSlotJ[:0]
		sc.tlbFifoJ = sc.tlbFifoJ[:0]
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
	for i := len(sc.tlbFifoJ) - 1; i >= 0; i-- {
		pr.tlb.fifo[sc.tlbFifoJ[i].idx] = sc.tlbFifoJ[i].val
	}
	for i := len(sc.tlbSlotJ) - 1; i >= 0; i-- {
		pr.tlb.slot[sc.tlbSlotJ[i].vpage] = sc.tlbSlotJ[i].val
	}
	pr.tlb.pos, pr.tlb.last = sc.tlbPos, sc.tlbLast
	pr.sc = nil
}

// scoutClaims stamps each directory line a scout touched into the claim
// table; a line already stamped by another scout this epoch is a conflict.
// The touched-line set is exactly the overlay key set: every scout path
// that reads a directory entry either writes it back or aborts.
func (s *System) beginValidateEpoch() {
	s.scoutEpoch++
	if len(s.claim) < len(s.dir) {
		s.claim = append(s.claim, make([]int64, len(s.dir)-len(s.claim))...)
	}
}

// ValidateScouts checks that the armed scouts' shared-state footprints are
// pairwise disjoint, so their speculative trajectories match what any
// serial interleaving would have produced. It reports true when the epoch
// can be committed.
func (s *System) ValidateScouts(procs []int) bool {
	s.beginValidateEpoch()
	stampBase := s.scoutEpoch << 8

	// Directory lines must be touched by at most one scout.
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

// scoutAccess mirrors Access under scout rules. Structure and cost
// arithmetic must stay in lockstep with Access — bit-identity of the
// parallel engine depends on it.
func (s *System) scoutAccess(p int, pr *proc, addr int64, write bool) {
	sc := pr.sc
	if sc.aborted {
		return
	}
	cfg := s.Cfg
	l1line := addr >> pr.l1.shift
	if write {
		pr.stats.Stores++
	} else {
		pr.stats.Loads++
	}
	if slot := pr.l1.lookup(l1line); slot >= 0 {
		if !pr.noMemo {
			i := l1line & l0Mask
			pr.l0Slot[i] = int32(slot)
			pr.l0Way[i] = int8(slot - int(l1line&pr.l1.mask)*pr.l1.assoc)
		}
		pr.clock += int64(cfg.L1HitCyc)
		if !write {
			return
		}
		if pr.l1.excl[slot] {
			return
		}
		l2line := addr >> s.l2Shift
		d := sc.dirRead(s, l2line)
		if d.othersThan(p) {
			sc.abort(AbortInvalidation)
			return
		}
		d.owner = int32(p)
		sc.dirWrite(l2line, d)
		sc.jCache(pr.l1, slot)
		pr.l1.excl[slot] = true
		if l2s := pr.l2.lookup(l2line); l2s >= 0 {
			sc.jCache(pr.l2, l2s)
			pr.l2.excl[l2s] = true
		}
		// lat stays 0: with no other sharers invalidateOthers charges
		// nothing, and MemCyc += 0 is a no-op in the serial path too.
		return
	}

	pr.stats.L1Miss++
	if sc.buf != nil {
		sc.buf.L1Miss(1)
	}
	lat := int64(cfg.L2HitCyc)

	vpage := s.Pages.VPage(addr)
	if !sc.tlbAccess(pr.tlb, vpage) {
		pr.stats.TLBMiss++
		lat += int64(cfg.TLBMissCyc)
		pr.stats.TLBCyc += int64(cfg.TLBMissCyc)
		if sc.buf != nil {
			sc.buf.TLBMiss(pr.node, addr, int64(cfg.TLBMissCyc), pr.clock, 1)
		}
	}

	l2line := addr >> s.l2Shift
	d := sc.dirRead(s, l2line)
	slot := pr.l2.lookup(l2line)
	if slot < 0 {
		pr.stats.L2Miss++
		if vp := addr >> s.Pages.PageShift(); vp < int64(len(s.pageMiss)) {
			sc.pmiss = append(sc.pmiss, vp)
		}
		pg, ok := s.Pages.Lookup(addr)
		if !ok {
			// First touch would allocate the page — a shared-state write.
			sc.abort(AbortPageFault)
			return
		}
		home := pg.Node
		if d.owner >= 0 && int(d.owner) != p {
			sc.abort(AbortIntervention)
			return
		}
		base := int64(cfg.RemoteLatency(pr.node, home))
		if wait := sc.reserve(s, home, pr.clock); wait > 0 {
			lat += wait
			pr.stats.WaitCyc += wait
			if sc.buf != nil {
				sc.buf.BWWait(home, wait, 1)
			}
		}
		lat += base
		if sc.buf != nil {
			sc.buf.L2Miss(pr.node, home, addr, base, pr.clock, 1)
		}
		if home == pr.node {
			pr.stats.L2MissLocal++
		} else {
			pr.stats.L2MissRemote++
		}
		victim, vs, vexcl := pr.l2.insert(l2line)
		sc.jCachePost(pr.l2, vs, victim, vexcl)
		if victim >= 0 {
			s.scoutEvictL2(sc, pr, p, victim, vexcl)
		}
		slot = vs
		d.set(p)
		sc.dirWrite(l2line, d)
	}

	if write && !pr.l2.excl[slot] {
		if d.othersThan(p) {
			sc.abort(AbortInvalidation)
			return
		}
		d.owner = int32(p)
		sc.dirWrite(l2line, d)
		sc.jCache(pr.l2, slot)
		pr.l2.excl[slot] = true
	}

	v1, s1, v1e := pr.l1.insert(l1line)
	sc.jCachePost(pr.l1, s1, v1, v1e)
	pr.l1.excl[s1] = pr.l2.excl[slot]
	if !pr.noMemo {
		i := l1line & l0Mask
		pr.l0Slot[i] = int32(s1)
		pr.l0Way[i] = int8(s1 - int(l1line&pr.l1.mask)*pr.l1.assoc)
	}

	pr.clock += lat
	pr.stats.MemCyc += lat
}

// scoutEvictL2 mirrors evictL2: directory bookkeeping goes to the overlay,
// own-L1 subline invalidations are journaled.
func (s *System) scoutEvictL2(sc *scoutCtx, pr *proc, p int, victim int64, wasExcl bool) {
	d := sc.dirRead(s, victim)
	d.clear(p)
	if d.owner == int32(p) {
		d.owner = -1
	}
	sc.dirWrite(victim, d)
	base := victim * int64(s.l1Per2)
	for k := 0; k < s.l1Per2; k++ {
		sc.invalidate(pr.l1, base+int64(k))
	}
	if wasExcl {
		pr.stats.Writebacks++
	}
}

// scoutLoadWord mirrors LoadWord: same fast path, with loads probing the
// scout's own store overlay before the frozen backing store. (No other
// scout can have written a word this one is permitted to read: writing
// requires exclusivity, and a foreign reader would abort on the owner
// check or trip directory-claim validation.)
func (s *System) scoutLoadWord(p int, pr *proc, addr int64) uint64 {
	sc := pr.sc
	if sc.aborted {
		return 0
	}
	l1line := addr >> pr.l1.shift
	if m := l1line & l0Mask; pr.l1.tags[pr.l0Slot[m]] == l1line {
		pr.stats.Loads++
		pr.l1.lru[l1line&pr.l1.mask] = pr.l0Way[m]
		pr.clock += pr.l1Hit
	} else {
		s.scoutAccess(p, pr, addr, false)
		if sc.aborted {
			return 0
		}
	}
	if sc.mem.n > 0 {
		if v, ok := sc.mem.load(addr >> 3); ok {
			return v
		}
	}
	return s.mem[addr>>3]
}

// scoutStoreWord mirrors StoreWord with the store landing in the overlay.
func (s *System) scoutStoreWord(p int, pr *proc, addr int64, v uint64) {
	sc := pr.sc
	if sc.aborted {
		return
	}
	l1line := addr >> pr.l1.shift
	if m := l1line & l0Mask; pr.l1.tags[pr.l0Slot[m]] == l1line &&
		pr.l1.excl[pr.l0Slot[m]] {
		pr.stats.Stores++
		pr.l1.lru[l1line&pr.l1.mask] = pr.l0Way[m]
		pr.clock += pr.l1Hit
	} else {
		s.scoutAccess(p, pr, addr, true)
		if sc.aborted {
			return
		}
	}
	sc.mem.store(addr>>3, v)
}

// scoutRunWalk mirrors runWalk under speculation. Group heads go through
// the scout memo guard or the full scoutAccess (which journals cache and
// directory effects and can abort); bulk L1 hits are charged in batch —
// their only effects are stats, clock and LRU touches, all of which the
// epoch snapshot already undoes, so no extra journal entries are needed.
// Returns the number of words completed: an abort stops the walk at the
// same word the word-at-a-time loop would have aborted on (the walk's
// remaining words would all be no-ops there, so stopping is identical).
func (s *System) scoutRunWalk(p int, pr *proc, addr, stride int64, count int, write bool, pre []int64) int {
	sc := pr.sc
	if sc.aborted {
		return 0
	}
	lean := pr.leanRun && stride >= 0 && count >= 2
	i := 0
	for i < count {
		a := addr + int64(i)*stride
		if pre != nil {
			pr.clock += pre[i]
		}
		l1line := a >> pr.l1.shift
		if m := l1line & l0Mask; pr.l1.tags[pr.l0Slot[m]] == l1line &&
			(!write || pr.l1.excl[pr.l0Slot[m]]) {
			if write {
				pr.stats.Stores++
			} else {
				pr.stats.Loads++
			}
			pr.l1.lru[l1line&pr.l1.mask] = pr.l0Way[m]
			pr.clock += pr.l1Hit
		} else {
			s.scoutAccess(p, pr, a, write)
			if sc.aborted {
				return i
			}
		}
		if !lean {
			i++
			continue
		}
		last := groupEnd(pr, a, stride, i, count, l1line)
		if last > i {
			slot := pr.l1.lookup(l1line)
			if slot < 0 || (write && !pr.l1.excl[slot]) {
				i++ // unreachable after a successful head; word-walk
				continue
			}
			k := int64(last - i)
			bulk := k * pr.l1Hit
			if pre != nil {
				for j := i + 1; j <= last; j++ {
					bulk += pre[j]
				}
			}
			if write {
				pr.stats.Stores += k
			} else {
				pr.stats.Loads += k
			}
			pr.clock += bulk
		}
		i = last + 1
	}
	return count
}

// scoutLoadRun mirrors LoadRun with reads probing the epoch's store
// overlay. Words at and after an abort read as zero, exactly as the
// aborted word loop would return.
func (s *System) scoutLoadRun(p int, pr *proc, addr, stride int64, count int, pre []int64, out []uint64) {
	n := s.scoutRunWalk(p, pr, addr, stride, count, false, pre)
	sc := pr.sc
	a := addr
	for i := 0; i < n; i++ {
		v := s.mem[a>>3]
		if sc.mem.n > 0 {
			if ov, ok := sc.mem.load(a >> 3); ok {
				v = ov
			}
		}
		out[i] = v
		a += stride
	}
	for i := n; i < count; i++ {
		out[i] = 0
	}
}

// scoutStoreRun mirrors StoreRun with writes landing in the overlay; the
// aborting word and everything after it store nothing, as in the loop.
func (s *System) scoutStoreRun(p int, pr *proc, addr, stride int64, count int, pre []int64, vals []uint64) {
	n := s.scoutRunWalk(p, pr, addr, stride, count, true, pre)
	sc := pr.sc
	a := addr
	for i := 0; i < n; i++ {
		sc.mem.store(a>>3, vals[i])
		a += stride
	}
}
