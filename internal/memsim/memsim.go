// Package memsim simulates the Origin-2000 memory system the paper's
// evaluation depends on (paper §2): per-processor two-way L1 and L2 caches,
// a 64-entry TLB, directory-based invalidation cache coherence maintained by
// the node hubs, NUMA latencies that grow with hypercube hop distance, and
// finite per-node memory bandwidth. Every effect quoted in §8 — local vs
// remote misses, cache-line and page-level false sharing, TLB-miss time,
// node bandwidth bottlenecks, and aggregate-cache superlinearity — emerges
// from this model rather than being scripted.
//
// Each logical processor has its own cycle clock; the executor interleaves
// processors in cycle-bounded quanta so the clocks stay loosely
// synchronized, and a windowed per-node bandwidth model (a node services a
// bounded number of cache lines per time window, independent of host
// scheduling order) turns concentrated page placements into queuing delay,
// as on the real machine.
//
// Caches are virtually indexed and tagged. The simulated OS always succeeds
// at page coloring for non-spilled pages (ospage), which on the real machine
// makes physical indexing behave like virtual indexing for contiguous
// virtual ranges; see DESIGN.md.
package memsim

import (
	"fmt"
	"math"
	"math/bits"

	"dsmdist/internal/machine"
	"dsmdist/internal/obs"
	"dsmdist/internal/ospage"
)

// MaxProcs is the largest processor count the directory sharer masks
// support.
const MaxProcs = 128

// ProcStats are the per-processor hardware-counter-style statistics (the
// paper reads the R10000 event counters; §8, [ZLT+96]). The JSON field
// names are a stable machine-readable interface (dsmbench -json); renaming
// one is a breaking change.
type ProcStats struct {
	Loads         int64 `json:"loads"`
	Stores        int64 `json:"stores"`
	L1Miss        int64 `json:"l1_miss"`
	L2Miss        int64 `json:"l2_miss"`
	L2MissLocal   int64 `json:"l2_miss_local"`
	L2MissRemote  int64 `json:"l2_miss_remote"`
	TLBMiss       int64 `json:"tlb_miss"`
	Upgrades      int64 `json:"upgrades"` // writes that had to invalidate other sharers
	InvSent       int64 `json:"inv_sent"`
	InvRecv       int64 `json:"inv_recv"`
	Interventions int64 `json:"interventions"` // misses serviced from another processor's cache
	Writebacks    int64 `json:"writebacks"`
	WaitCyc       int64 `json:"wait_cyc"` // cycles lost to node-memory queuing
	TLBCyc        int64 `json:"tlb_cyc"`  // cycles spent in TLB refill
	MemCyc        int64 `json:"mem_cyc"`  // cycles spent waiting on cache misses
}

// Add accumulates o into s.
func (s *ProcStats) Add(o ProcStats) {
	s.Loads += o.Loads
	s.Stores += o.Stores
	s.L1Miss += o.L1Miss
	s.L2Miss += o.L2Miss
	s.L2MissLocal += o.L2MissLocal
	s.L2MissRemote += o.L2MissRemote
	s.TLBMiss += o.TLBMiss
	s.Upgrades += o.Upgrades
	s.InvSent += o.InvSent
	s.InvRecv += o.InvRecv
	s.Interventions += o.Interventions
	s.Writebacks += o.Writebacks
	s.WaitCyc += o.WaitCyc
	s.TLBCyc += o.TLBCyc
	s.MemCyc += o.MemCyc
}

type dirEntry struct {
	mask0, mask1 uint64
	owner        int32 // processor holding the line Modified, or -1
}

func (d *dirEntry) has(p int) bool {
	if p < 64 {
		return d.mask0&(1<<uint(p)) != 0
	}
	return d.mask1&(1<<uint(p-64)) != 0
}

func (d *dirEntry) set(p int) {
	if p < 64 {
		d.mask0 |= 1 << uint(p)
	} else {
		d.mask1 |= 1 << uint(p-64)
	}
}

func (d *dirEntry) clear(p int) {
	if p < 64 {
		d.mask0 &^= 1 << uint(p)
	} else {
		d.mask1 &^= 1 << uint(p-64)
	}
}

func (d *dirEntry) othersThan(p int) bool {
	m0, m1 := d.mask0, d.mask1
	if p < 64 {
		m0 &^= 1 << uint(p)
	} else {
		m1 &^= 1 << uint(p-64)
	}
	return m0 != 0 || m1 != 0
}

type cache struct {
	// tags holds sets*assoc line tags (full line address, -1 invalid)
	// plus one trailing sentinel entry that stays -1 forever. The L0 memo
	// points empty entries at the sentinel so its guard is a single
	// always-in-bounds load-and-compare with no separate validity test.
	tags  []int64
	excl  []bool // line held exclusively (L2) / writable (L1)
	lru   []int8 // way last used, per set (assoc<=2 friendly round-robin)
	sets  int
	assoc int
	sent  int32 // index of the sentinel tags entry (== sets*assoc)
	shift uint
	mask  int64
}

func newCache(bytes, lineSize, assoc int) *cache {
	sets := bytes / (lineSize * assoc)
	if sets < 1 {
		sets = 1
	}
	c := &cache{
		tags:  make([]int64, sets*assoc+1),
		excl:  make([]bool, sets*assoc+1),
		lru:   make([]int8, sets),
		sets:  sets,
		assoc: assoc,
		sent:  int32(sets * assoc),
		shift: uint(bits.TrailingZeros(uint(lineSize))),
		mask:  int64(sets - 1),
	}
	for i := range c.tags {
		c.tags[i] = -1
	}
	return c
}

// lookup returns the slot index of line (full line address) or -1.
func (c *cache) lookup(line int64) int {
	base := int(line&c.mask) * c.assoc
	for w := 0; w < c.assoc; w++ {
		if c.tags[base+w] == line {
			c.lru[line&c.mask] = int8(w)
			return base + w
		}
	}
	return -1
}

// insert fills the line, returning the victim line address (or -1), its
// slot, and whether the victim was held exclusive.
func (c *cache) insert(line int64) (victim int64, slot int, victimExcl bool) {
	set := int(line & c.mask)
	base := set * c.assoc
	// Prefer an invalid way.
	for w := 0; w < c.assoc; w++ {
		if c.tags[base+w] == -1 {
			c.tags[base+w] = line
			c.excl[base+w] = false
			c.lru[set] = int8(w)
			return -1, base + w, false
		}
	}
	// Evict the not-most-recently-used way.
	w := int(c.lru[set]) + 1
	if w >= c.assoc {
		w = 0
	}
	victim = c.tags[base+w]
	victimExcl = c.excl[base+w]
	c.tags[base+w] = line
	c.excl[base+w] = false
	c.lru[set] = int8(w)
	return victim, base + w, victimExcl
}

// invalidate removes the line if present, returning the slot it held (or
// -1) and whether it was held exclusive.
func (c *cache) invalidate(line int64) (slot int, excl bool) {
	if slot = c.lookup(line); slot >= 0 {
		excl = c.excl[slot]
		c.tags[slot] = -1
		c.excl[slot] = false
	}
	return slot, excl
}

// tlb models a FIFO-replacement TLB. Membership lives in slot, a flat
// table indexed by virtual page holding the entry's fifo index + 1 (0 =
// not present); virtual page counts are small (memory size / page size),
// so the table costs a few hundred KB per processor and turns the hot
// hit test into a single indexed load. The table grows on demand as the
// simulated heap grows.
type tlb struct {
	slot []uint16 // vpage -> fifo index + 1; 0 = absent
	fifo []int64
	pos  int
	// last memoizes the most recently accessed page so the common
	// same-page streak skips even the table load. Invariant: last != 0
	// implies last is resident (cleared at both deletion sites), so the
	// memo answer always matches what the table would say. Virtual page 0
	// is never mapped (null guard), so 0 doubles as "empty".
	last int64
	// noMemo disables the memo (System.SetL0 test hook).
	noMemo bool
}

func newTLB(n int) *tlb {
	if n+1 > int(^uint16(0)) {
		panic("memsim: TLB too large for uint16 fifo indices")
	}
	return &tlb{slot: make([]uint16, 1024), fifo: make([]int64, n)}
}

// access returns true on hit, inserting on miss (FIFO replacement). Virtual
// page 0 is never mapped (null guard), so a zero fifo slot means empty. A
// scout (sc non-nil) journals the refill; growth of the membership table
// needs no undo, since new cells are zero and zero means absent.
func (t *tlb) access(vpage int64, sc *scoutCtx) bool {
	if vpage == t.last && !t.noMemo {
		return true
	}
	if vpage < int64(len(t.slot)) && t.slot[vpage] != 0 {
		t.last = vpage
		return true
	}
	old := t.fifo[t.pos]
	sc.jTLB(t.pos, old)
	if old != 0 {
		t.slot[old] = 0 // resident pages are always inside the table
		if old == t.last {
			t.last = 0
		}
	}
	if vpage >= int64(len(t.slot)) {
		grown := make([]uint16, vpage+vpage/4+1)
		copy(grown, t.slot)
		t.slot = grown
	}
	t.fifo[t.pos] = vpage
	t.slot[vpage] = uint16(t.pos) + 1
	t.last = vpage
	t.pos++
	if t.pos == len(t.fifo) {
		t.pos = 0
	}
	return false
}

func (t *tlb) shootdown(vpage int64) {
	if vpage < int64(len(t.slot)) {
		if i := t.slot[vpage]; i != 0 {
			t.slot[vpage] = 0
			t.fifo[i-1] = 0
			if vpage == t.last {
				t.last = 0
			}
		}
	}
}

type proc struct {
	clock int64
	l1    *cache
	l2    *cache
	tlb   *tlb
	node  int
	stats ProcStats

	// The "L0" memo: a small direct-mapped table of recently hit or
	// filled L1 slots, indexed by the low bits of the line number. A
	// repeat access to a memoized line revalidates the entry with a
	// single tag compare — l1.tags[l0Slot[m]] == line — and skips the
	// full Access walk. The compare alone proves the hit: a slot only
	// ever holds lines of its own set, so a matching tag means the line
	// is resident at that slot, and since sets partition slots, the line
	// the entry was written for shares the set, making the cached way
	// valid too. Empty entries point at the cache's sentinel tag (-1),
	// which no real line address equals. Invalidations and evictions
	// overwrite tags, so stale entries self-detect. The memo is purely a
	// host-side shortcut — see the bit-identical contract on LoadWord
	// and TestL0FastPathBitIdentical. Multiple entries matter because
	// hot loop bodies interleave accesses to several unrelated lines
	// (descriptor, source, destination); a single entry ping-pongs and
	// never hits.
	l0Slot [l0Ways]int32
	l0Way  [l0Ways]int8
	// l1Hit is the per-proc copy of Config.L1HitCyc, and noMemo the
	// per-proc SetL0 state; both keep the inlined LoadWord/StoreWord
	// fast path free of System-level indirections. With noMemo set the
	// memo is never written, so every entry stays on the sentinel and
	// the fast path never matches.
	l1Hit  int64
	noMemo bool
	// leanRun gates the run-batched fast path in AccessRun et al.
	// (System.SetMemRun / DSM_MEMRUN); cleared per-proc for the same
	// reason noMemo is.
	leanRun bool

	// sc, when non-nil, routes this processor's accesses through scout
	// mode (speculative epoch of the parallel engine; see scout.go).
	// scSpare parks the context between epochs for reuse.
	sc      *scoutCtx
	scSpare *scoutCtx
}

// System is the shared memory system for one simulated run.
type System struct {
	Cfg   *machine.Config
	Pages *ospage.Manager

	mem   []uint64 // backing store, 8-byte words
	brk   int64    // bytes allocated
	procs []*proc

	dir     []dirEntry
	l2Shift uint
	l1Per2  int // L1 lines per L2 line

	// pageMiss counts L2 misses per virtual page (array-traffic
	// attribution, in the spirit of the paper's hardware-counter
	// analysis).
	pageMiss []int64

	// Node-memory bandwidth model: each node can service a bounded
	// number of cache lines per time window. Windows make the model
	// independent of thread scheduling order — a request at simulated
	// time t sees the same queue no matter when it is executed by the
	// host.
	bw       []nodeBW
	bwWindow int64 // window length in cycles
	bwCap    int32 // lines serviceable per window

	// rec, when non-nil, receives observability events. Every hook is
	// nil-guarded and placed off the arithmetic paths, so a run without
	// a recorder is cycle-for-cycle identical.
	rec *obs.Recorder

	// Scout-epoch validation state (see scout.go): a monotone epoch
	// counter and a per-directory-line claim table stamped
	// epoch<<8|proc+1 so disjointness checks need no clearing.
	scoutEpoch int64
	claim      []int64
	// bwTotal is ValidateScouts' per-(node, window) booking sum, kept
	// between epochs so a validation allocates nothing.
	bwTotal map[int64]int32

	// reserved is the heap size in bytes that the arrays behind mem, dir
	// and pageMiss have room for (Reserve); brk never exceeds it.
	reserved int64
}

// SetL0 enables or disables the host-side access fast paths (the per-
// processor L0 line memo and the TLB last-page memo). They are on by
// default; disabling them must not change any simulated cycle or counter —
// the toggle exists so tests can prove that.
func (s *System) SetL0(enabled bool) {
	for _, pr := range s.procs {
		pr.noMemo = !enabled
		for i := range pr.l0Slot {
			pr.l0Slot[i] = pr.l1.sent
		}
		pr.tlb.noMemo = !enabled
	}
}

// SetRecorder attaches (or detaches, with nil) the observability sink.
func (s *System) SetRecorder(r *obs.Recorder) { s.rec = r }

// bwRing is the number of windows tracked per node; requests pushed more
// than bwRing windows into the future accumulate wait in bulk.
const bwRing = 64

type nodeBW struct {
	epoch [bwRing]int64
	used  [bwRing]int32
}

// reserve books one cache-line service on the node at time t, returning the
// queuing delay. A scout (sc non-nil) leaves the shared ring untouched: it
// books into its own ledger and counts that ledger on top of the frozen ring.
// A stale ring slot (epoch mismatch) reads as empty either way.
func (s *System) reserve(sc *scoutCtx, node int, t int64) int64 {
	if s.bwCap <= 0 {
		return 0
	}
	b := &s.bw[node]
	w := t / s.bwWindow
	for k := 0; k < bwRing; k++ {
		wk := w + int64(k)
		idx := wk % bwRing
		var used int32
		if b.epoch[idx] == wk {
			used = b.used[idx]
		}
		if sc != nil {
			used += sc.bwBook[bwKey(node, wk)]
		}
		if used < s.bwCap {
			if sc != nil {
				sc.bwBook[bwKey(node, wk)]++
			} else {
				b.epoch[idx], b.used[idx] = wk, used+1
			}
			sc.noteBW(node, k > 0)
			if k == 0 {
				return 0
			}
			return wk*s.bwWindow - t
		}
	}
	// Saturated far beyond the ring: charge a full ring of delay.
	sc.noteBW(node, true)
	return int64(bwRing) * s.bwWindow
}

// New builds the memory system for the machine configuration, with pages
// managed by pm.
func New(cfg *machine.Config, pm *ospage.Manager) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.NProcs > MaxProcs {
		return nil, fmt.Errorf("memsim: %d processors exceeds MaxProcs %d", cfg.NProcs, MaxProcs)
	}
	s := &System{
		Cfg:      cfg,
		Pages:    pm,
		l2Shift:  uint(bits.TrailingZeros(uint(cfg.L2LineSize))),
		l1Per2:   cfg.L2LineSize / cfg.L1LineSize,
		bw:       make([]nodeBW, cfg.NNodes()),
		bwWindow: 512,
		brk:      int64(cfg.PageBytes), // first page kept unmapped as a null guard
	}
	if cfg.MemServiceCyc > 0 {
		s.bwCap = int32(s.bwWindow / int64(cfg.MemServiceCyc))
		if s.bwCap < 1 {
			s.bwCap = 1
		}
	}
	if s.l1Per2 < 1 {
		s.l1Per2 = 1
	}
	// DSM_MEMRUN=off|0|false disables run batching from the environment.
	leanRun := memRunEnv()
	s.procs = make([]*proc, cfg.NProcs)
	for p := range s.procs {
		s.procs[p] = &proc{
			l1:      newCache(cfg.L1Bytes, cfg.L1LineSize, cfg.L1Assoc),
			l2:      newCache(cfg.L2Bytes, cfg.L2LineSize, cfg.L2Assoc),
			tlb:     newTLB(cfg.TLBEntries),
			node:    cfg.NodeOf(p),
			l1Hit:   int64(cfg.L1HitCyc),
			leanRun: leanRun,
		}
		for i := range s.procs[p].l0Slot {
			s.procs[p].l0Slot[i] = s.procs[p].l1.sent
		}
	}
	return s, nil
}

// Bump is the heap's allocation rule, the only copy of it: the base of an
// n-byte block aligned to align (a power of two; anything below 8 means 8)
// allocated at brk, and the brk after it. Alloc applies it to the live heap;
// a loader applies it to plain numbers to lay an image out before a byte is
// allocated (rtl.LoadObs), so the two cannot disagree about an address.
func Bump(brk, n, align int64) (base, next int64) {
	if align < 8 {
		align = 8
	}
	base = (brk + align - 1) &^ (align - 1)
	return base, base + n
}

// Alloc reserves n bytes of virtual address space aligned to align (which
// must be a power of two, at least 8) and returns the base address. The
// space is zero-filled and unplaced; pages materialize on first touch or
// explicit placement. Inside a reservation (Reserve) it is a reslice of the
// backing store; past one it doubles the reservation, so a heap grown one
// Alloc at a time is copied an amortised once.
func (s *System) Alloc(n int64, align int64) int64 {
	var base int64
	base, s.brk = Bump(s.brk, n, align)
	if s.brk > s.reserved {
		s.Reserve(max(s.brk, 2*s.reserved))
	}
	words, lines, pages := s.extent(s.brk)
	s.mem, s.dir, s.pageMiss = s.mem[:words], s.dir[:lines], s.pageMiss[:pages]
	return base
}

// extent is the length of the backing store, the directory and the per-page
// miss counters of a heap whose top is brk.
func (s *System) extent(brk int64) (words, lines, pages int64) {
	return (brk + 7) >> 3, brk>>s.l2Shift + 1, brk>>s.Pages.PageShift() + 1
}

// Reserve makes room for the heap to grow to brk bytes: the backing store,
// the directory and the per-page miss counters each move, once, to an array
// of their final size, and every Alloc up to brk reslices it. Lengths — and
// with them Brk and every out-of-range trap — still follow Alloc alone. A
// brk inside the current reservation is a no-op.
func (s *System) Reserve(brk int64) {
	if brk <= s.reserved {
		return
	}
	s.reserved = brk
	words, lines, pages := s.extent(brk)
	s.mem = append(make([]uint64, 0, words), s.mem...)
	s.pageMiss = append(make([]int64, 0, pages), s.pageMiss...)
	dir := make([]dirEntry, lines)
	for i := copy(dir, s.dir); i < len(dir); i++ {
		dir[i].owner = -1
	}
	s.dir = dir[:len(s.dir)]
}

// PageMisses returns the total L2 misses charged to pages overlapping the
// byte range [lo, hi).
func (s *System) PageMisses(lo, hi int64) int64 {
	if hi <= lo {
		return 0
	}
	first := lo >> s.Pages.PageShift()
	last := (hi - 1) >> s.Pages.PageShift()
	var n int64
	for vp := first; vp <= last && vp < int64(len(s.pageMiss)); vp++ {
		n += s.pageMiss[vp]
	}
	return n
}

// Brk returns the current top of the allocated address space.
func (s *System) Brk() int64 { return s.brk }

// Clock returns processor p's cycle clock.
func (s *System) Clock(p int) int64 { return s.procs[p].clock }

// SetClock overrides processor p's clock (barrier release).
func (s *System) SetClock(p int, c int64) { s.procs[p].clock = c }

// AddCycles charges instruction-execution cycles to processor p.
func (s *System) AddCycles(p int, n int64) { s.procs[p].clock += n }

// Stats returns processor p's counters.
func (s *System) Stats(p int) ProcStats { return s.procs[p].stats }

// TotalStats sums counters over all processors.
func (s *System) TotalStats() ProcStats {
	var t ProcStats
	for _, pr := range s.procs {
		t.Add(pr.stats)
	}
	return t
}

// MaxClock returns the maximum clock over the given processors.
func (s *System) MaxClock(procs []int) int64 {
	m := int64(0)
	for _, p := range procs {
		if c := s.procs[p].clock; c > m {
			m = c
		}
	}
	return m
}

// Barrier synchronizes the given processors: all clocks advance to the
// maximum plus the barrier cost model.
func (s *System) Barrier(procs []int) {
	m := s.MaxClock(procs)
	cost := int64(s.Cfg.BarrierBaseCyc + s.Cfg.BarrierPerProc*len(procs))
	if s.rec != nil {
		for _, p := range procs {
			s.rec.BarrierWait(p, s.procs[p].clock, m+cost-s.procs[p].clock)
		}
	}
	for _, p := range procs {
		s.procs[p].clock = m + cost
	}
}

// invalidateOthers removes the L2 line (and contained L1 lines) from every
// sharer except req, charging coherence latency to the requester. A scout
// cannot express writes to other processors' caches as an overlay, so it
// aborts instead (ok false).
func (s *System) invalidateOthers(sc *scoutCtx, req int, d *dirEntry, line int64) (extra int64, ok bool) {
	if sc != nil {
		sc.abort(AbortInvalidation)
		return 0, false
	}
	n := 0
	for p := 0; p < len(s.procs); p++ {
		if p == req || !d.has(p) {
			continue
		}
		pr := s.procs[p]
		pr.l2.invalidate(line)
		base := line * int64(s.l1Per2)
		for k := 0; k < s.l1Per2; k++ {
			pr.l1.invalidate(base + int64(k))
		}
		pr.stats.InvRecv++
		d.clear(p)
		n++
	}
	if n > 0 {
		s.procs[req].stats.InvSent += int64(n)
		s.procs[req].stats.Upgrades++
		extra = int64(s.Cfg.CoherenceCyc) + int64(8*(n-1))
		if s.rec != nil {
			s.rec.Invalidations(n)
		}
	}
	if d.owner >= 0 && int(d.owner) != req {
		d.owner = -1
	}
	return extra, true
}

// evictL2 handles replacement of an L2 line from processor p's cache:
// directory bookkeeping, inclusion invalidation of the L1 sublines, and a
// writeback count when the line was exclusive.
func (s *System) evictL2(sc *scoutCtx, p int, victim int64, wasExcl bool) {
	pr := s.procs[p]
	var dbuf dirEntry
	d := sc.openDir(s, victim, &dbuf)
	d.clear(p)
	if d.owner == int32(p) {
		d.owner = -1
	}
	sc.closeDir(victim, d)
	base := victim * int64(s.l1Per2)
	for k := int64(0); k < int64(s.l1Per2); k++ {
		if slot, excl := pr.l1.invalidate(base + k); slot >= 0 {
			sc.jCachePost(pr.l1, slot, base+k, excl)
		}
	}
	if wasExcl {
		pr.stats.Writebacks++
	}
}

// remember points the L0 memo entry for l1line at its (resident) L1 slot.
func (pr *proc) remember(l1line int64, slot int) {
	if !pr.noMemo {
		i := l1line & l0Mask
		pr.l0Slot[i] = int32(slot)
		pr.l0Way[i] = int8(slot - int(l1line&pr.l1.mask)*pr.l1.assoc)
	}
}

// Access simulates one 8-byte load or store by processor p at virtual
// address addr, advancing p's clock by the modeled latency. It does not
// touch the backing store; LoadWord/StoreWord wrap it with data movement.
//
// This is the only copy of the cost walk. When p is a scout (pr.sc non-nil;
// see scout.go) the same walk runs with shared state read-only: each sc.*
// call below is a no-op on a nil scout, and otherwise journals a private
// cell before it is overwritten or routes a shared write to the scout's
// overlay. At the three steps with no overlay form — first touch of an
// unmapped page, cache-to-cache intervention, invalidating other sharers
// (invalidateOthers) — a scout aborts and returns; once aborted, its
// accesses do nothing.
func (s *System) Access(p int, addr int64, write bool) {
	pr := s.procs[p]
	sc := pr.sc
	if sc != nil && sc.aborted {
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
		pr.remember(l1line, slot)
		pr.clock += int64(cfg.L1HitCyc)
		if !write || pr.l1.excl[slot] {
			return
		}
		// Write to a shared line: upgrade through the directory.
		l2line := addr >> s.l2Shift
		var dbuf dirEntry
		d := sc.openDir(s, l2line, &dbuf)
		var lat int64
		if d.othersThan(p) {
			var ok bool
			if lat, ok = s.invalidateOthers(sc, p, d, l2line); !ok {
				return
			}
		}
		d.owner = int32(p)
		sc.closeDir(l2line, d)
		sc.jCache(pr.l1, slot)
		pr.l1.excl[slot] = true
		if l2s := pr.l2.lookup(l2line); l2s >= 0 {
			sc.jCache(pr.l2, l2s)
			pr.l2.excl[l2s] = true
		}
		pr.clock += lat
		pr.stats.MemCyc += lat
		return
	}

	pr.stats.L1Miss++
	// Observability events go to the recorder, or under speculation to the
	// scout's buffer (the executor replays it in schedule order at commit);
	// either may be absent.
	if sc == nil {
		if s.rec != nil {
			s.rec.L1Miss(p, 1)
		}
	} else if sc.buf != nil {
		sc.buf.L1Miss(1)
	}
	lat := int64(cfg.L2HitCyc)

	// Address translation happens on the refill path.
	if !pr.tlb.access(s.Pages.VPage(addr), sc) {
		pr.stats.TLBMiss++
		lat += int64(cfg.TLBMissCyc)
		pr.stats.TLBCyc += int64(cfg.TLBMissCyc)
		if sc == nil {
			if s.rec != nil {
				s.rec.TLBMiss(p, pr.node, addr, int64(cfg.TLBMissCyc), pr.clock, 1)
			}
		} else if sc.buf != nil {
			sc.buf.TLBMiss(pr.node, addr, int64(cfg.TLBMissCyc), pr.clock, 1)
		}
	}

	// The directory entry is needed (and, under scout, copied) only when
	// the line must be fetched or made exclusive.
	l2line := addr >> s.l2Shift
	slot := pr.l2.lookup(l2line)
	var dbuf dirEntry
	var d *dirEntry
	if slot < 0 || (write && !pr.l2.excl[slot]) {
		d = sc.openDir(s, l2line, &dbuf)
	}
	if slot < 0 {
		// L2 miss: fetch from home memory or intervening cache.
		pr.stats.L2Miss++
		if vp := addr >> s.Pages.PageShift(); vp < int64(len(s.pageMiss)) {
			if sc != nil {
				sc.pmiss = append(sc.pmiss, vp)
			} else {
				s.pageMiss[vp]++
			}
		}
		var home int
		if sc == nil {
			home = s.Pages.Touch(addr, pr.node)
		} else if pg, ok := s.Pages.Lookup(addr); ok {
			home = pg.Node
		} else {
			// First touch would allocate the page — a shared-state write.
			sc.abort(AbortPageFault)
			return
		}
		if d.owner >= 0 && int(d.owner) != p {
			// Dirty in another cache: cache-to-cache intervention.
			if sc != nil {
				sc.abort(AbortIntervention)
				return
			}
			pr.stats.Interventions++
			fetch := int64(cfg.RemoteLatency(pr.node, s.procs[d.owner].node) + cfg.CoherenceCyc)
			if s.rec != nil {
				s.rec.Intervention()
				s.rec.L2Miss(p, pr.node, home, addr, fetch, pr.clock, 1)
			}
			lat += fetch
			d.owner = -1
		} else {
			base := int64(cfg.RemoteLatency(pr.node, home))
			// Node memory bandwidth: queue behind other requests in
			// the same time window.
			if wait := s.reserve(sc, home, pr.clock); wait > 0 {
				lat += wait
				pr.stats.WaitCyc += wait
				if sc == nil {
					if s.rec != nil {
						s.rec.BWWait(p, home, wait, 1)
					}
				} else if sc.buf != nil {
					sc.buf.BWWait(home, wait, 1)
				}
			}
			lat += base
			if sc == nil {
				if s.rec != nil {
					s.rec.L2Miss(p, pr.node, home, addr, base, pr.clock, 1)
				}
			} else if sc.buf != nil {
				sc.buf.L2Miss(pr.node, home, addr, base, pr.clock, 1)
			}
		}
		if home == pr.node {
			pr.stats.L2MissLocal++
		} else {
			pr.stats.L2MissRemote++
		}
		victim, vs, vexcl := pr.l2.insert(l2line)
		sc.jCachePost(pr.l2, vs, victim, vexcl)
		if victim >= 0 {
			s.evictL2(sc, p, victim, vexcl)
		}
		slot = vs
		d.set(p)
		sc.closeDir(l2line, d)
	}

	if write && !pr.l2.excl[slot] {
		if d.othersThan(p) {
			inv, ok := s.invalidateOthers(sc, p, d, l2line)
			if !ok {
				return
			}
			lat += inv
		}
		d.owner = int32(p)
		sc.closeDir(l2line, d)
		sc.jCache(pr.l2, slot)
		pr.l2.excl[slot] = true
	}

	// Fill L1 (inclusion holds: L2 line present). L1 victims need no
	// directory work; L2 still holds them.
	v1, s1, v1excl := pr.l1.insert(l1line)
	sc.jCachePost(pr.l1, s1, v1, v1excl)
	pr.l1.excl[s1] = pr.l2.excl[slot]
	pr.remember(l1line, s1)

	pr.clock += lat
	pr.stats.MemCyc += lat
}

// LoadWord simulates a load and returns the 8-byte word at addr.
//
// The guard is the L0 fast path: a repeat access to the processor's most
// recently used L1 line skips the Access walk entirely. The tag compare
// revalidates the memo (any invalidation or eviction rewrites the tag),
// and the path performs exactly the state updates the general L1-hit path
// in Access would: the stats counter, the LRU touch the lookup would make,
// and the L1-hit charge. Bit-identity with the slow path is asserted by
// TestL0FastPathBitIdentical.
func (s *System) LoadWord(p int, addr int64) uint64 {
	pr := s.procs[p]
	l1line := addr >> pr.l1.shift
	m := l1line & l0Mask
	if pr.l1.tags[pr.l0Slot[m]] == l1line && pr.sc == nil {
		pr.stats.Loads++
		pr.l1.lru[l1line&pr.l1.mask] = pr.l0Way[m]
		pr.clock += pr.l1Hit
		return s.mem[addr>>3]
	}
	return s.loadWordSlow(p, pr, addr)
}

func (s *System) loadWordSlow(p int, pr *proc, addr int64) uint64 {
	if sc := pr.sc; sc != nil {
		// A scout reads through its store overlay; an aborted one reads 0.
		s.accessWord(p, pr, addr, false)
		if sc.aborted {
			return 0
		}
		return sc.loadMem(s, addr)
	}
	// Issue the host-side data load before the simulation walk: Access
	// never reads or writes the backing store, and the walk's own work
	// (tags, directory, TLB) then overlaps the host cache miss that a
	// simulated miss almost always implies.
	v := s.mem[addr>>3]
	s.Access(p, addr, false)
	return v
}

// StoreWord simulates a store of the 8-byte word at addr. The L0 fast
// path (see LoadWord) applies only when the line is already writable; a
// shared-line write needs the directory and takes the full Access walk.
func (s *System) StoreWord(p int, addr int64, v uint64) {
	pr := s.procs[p]
	l1line := addr >> pr.l1.shift
	m := l1line & l0Mask
	if slot := pr.l0Slot[m]; pr.l1.tags[slot] == l1line && pr.l1.excl[slot] && pr.sc == nil {
		pr.stats.Stores++
		pr.l1.lru[l1line&pr.l1.mask] = pr.l0Way[m]
		pr.clock += pr.l1Hit
		s.mem[addr>>3] = v
		return
	}
	s.storeWordSlow(p, pr, addr, v)
}

func (s *System) storeWordSlow(p int, pr *proc, addr int64, v uint64) {
	if sc := pr.sc; sc != nil {
		// A scout's store lands in its overlay; an aborted one stores nothing.
		s.accessWord(p, pr, addr, true)
		if !sc.aborted {
			sc.mem.store(addr>>3, v)
		}
		return
	}
	// As in LoadWord, touch the backing store before the walk so the host
	// write miss overlaps the simulation work (Access never touches mem).
	s.mem[addr>>3] = v
	s.Access(p, addr, true)
}

// LoadFloat and StoreFloat move float64 values through the simulated
// hierarchy.
func (s *System) LoadFloat(p int, addr int64) float64 {
	return math.Float64frombits(s.LoadWord(p, addr))
}

func (s *System) StoreFloat(p int, addr int64, v float64) {
	s.StoreWord(p, addr, math.Float64bits(v))
}

// Peek reads the backing store without simulating an access (result
// extraction, debugging).
func (s *System) Peek(addr int64) uint64 { return s.mem[addr>>3] }

// Poke writes the backing store without simulation (program loading).
func (s *System) Poke(addr int64, v uint64) { s.mem[addr>>3] = v }

// PeekFloat and PokeFloat are the float64 versions of Peek/Poke.
func (s *System) PeekFloat(addr int64) float64 { return math.Float64frombits(s.Peek(addr)) }

func (s *System) PokeFloat(addr int64, v float64) { s.Poke(addr, math.Float64bits(v)) }

// MigratePage performs the coherence side of a page migration or
// redistribution: every cached line of the page is invalidated everywhere
// and TLB entries are shot down. The caller charges the data-copy cost.
func (s *System) MigratePage(vpage int64) {
	pb := int64(s.Cfg.PageBytes)
	lo := vpage * pb >> s.l2Shift
	hi := ((vpage+1)*pb - 1) >> s.l2Shift
	for line := lo; line <= hi && line < int64(len(s.dir)); line++ {
		d := &s.dir[line]
		for p := 0; p < len(s.procs); p++ {
			if !d.has(p) {
				continue
			}
			pr := s.procs[p]
			pr.l2.invalidate(line)
			base := line * int64(s.l1Per2)
			for k := 0; k < s.l1Per2; k++ {
				pr.l1.invalidate(base + int64(k))
			}
			d.clear(p)
		}
		d.owner = -1
	}
	for _, pr := range s.procs {
		pr.tlb.shootdown(vpage)
	}
}

// BulkTransfer models a DMA-style streaming copy of `bytes` bytes from
// srcNode's memory to dstNode's memory, driven by processor p (the one
// programming the engine). Unlike a demand miss, the stream pays the
// interconnect latency between the nodes once as startup, then books one
// cache-line service slot per L2 line on the source node's bandwidth window
// — and, when the destination differs, on the destination's window too — so
// redistribution traffic contends with demand misses through the same
// windowed bandwidth model. Queuing delays accumulate in p's WaitCyc. p's
// clock advances to the completion time and the total cycle cost is
// returned.
func (s *System) BulkTransfer(p, srcNode, dstNode int, bytes int64) int64 {
	if bytes <= 0 {
		return 0
	}
	pr := s.procs[p]
	start := pr.clock
	t := start + int64(s.Cfg.RemoteLatency(srcNode, dstNode))
	lines := (bytes + int64(s.Cfg.L2LineSize) - 1) / int64(s.Cfg.L2LineSize)
	svc := int64(s.Cfg.MemServiceCyc)
	if svc < 1 {
		svc = 1
	}
	var waited int64
	for i := int64(0); i < lines; i++ {
		// Never a scout: the executor gates runtime calls out of epochs.
		wait := s.reserve(nil, srcNode, t)
		if dstNode != srcNode {
			if w := s.reserve(nil, dstNode, t+wait); w > 0 {
				wait += w
			}
		}
		waited += wait
		t += wait + svc
	}
	pr.stats.WaitCyc += waited
	pr.clock = t
	return t - start
}
