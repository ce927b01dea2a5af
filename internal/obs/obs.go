// Package obs is the observability layer for the simulated CC-NUMA
// machine: the software analog of the R10000 event counters plus the
// perfex/SpeedShop attribution workflow the paper's evaluation is built on
// (§8: secondary-cache miss counts, TLB-time fractions, local vs remote
// miss ratios, all attributed to specific arrays and program phases).
//
// The producers — memsim (cache/TLB/coherence/bandwidth events), ospage
// (placement, migration, spill), rtl (redistribution, reshaped pools,
// argument checks) and exec (parallel regions, barriers, scheduling) —
// publish into a *Recorder. A nil *Recorder is the off switch: every hook
// is a small exported wrapper whose nil check inlines at the call site, so
// a run without tracing executes the exact same simulation arithmetic and
// produces bit-identical cycle counts.
//
// The Recorder aggregates three views:
//
//   - per-array × per-node heat maps: L2 misses attributed back to the
//     source array that owns the address (registered by rtl from the
//     codegen array plans), split local/remote by the accessing node and
//     counted on the serving (home) node;
//   - per-page heat: remote misses per virtual page, by accessing node —
//     the page-level false-sharing and one-node-bottleneck view;
//   - per-region cycle breakdowns: for every outlined doacross region
//     (and the serial phase between regions) cycles split into compute,
//     local-miss, remote-miss, TLB refill, bandwidth-queue wait and
//     barrier wait — the paper's "TLB time 15% vs <7.5%" style numbers.
//
// Exporters live in report.go (text profile, JSON/CSV summaries) and
// trace.go (Chrome trace_event JSON for chrome://tracing).
package obs

import (
	"fmt"
	"sort"

	"dsmdist/internal/machine"
)

// Kind enumerates the event kinds the producers publish.
type Kind uint8

const (
	KL1Miss Kind = iota
	KL2MissLocal
	KL2MissRemote
	KTLBMiss
	KInvalidation
	KIntervention
	KBWWait
	KBarrierWait
	KPagePlace
	KPageMigrate
	KPageSpill
	KRedistribute
	KPoolAlloc
	KArgCheck
	KArgCheckFail
	KRegion
	KQuantumSwitch
	KRedistRound
	nKinds
)

var kindNames = [...]string{
	"l1-miss", "l2-miss-local", "l2-miss-remote", "tlb-miss",
	"invalidation", "intervention", "bw-wait", "barrier-wait",
	"page-place", "page-migrate", "page-spill",
	"redistribute", "pool-alloc", "arg-check", "arg-check-fail",
	"region", "quantum-switch", "redist-round",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "unknown"
}

// NodeHeat is one cell of a per-array heat map.
type NodeHeat struct {
	LocalMiss    int64 // L2 misses by processors on this node hitting local memory
	RemoteMiss   int64 // L2 misses by processors on this node to remote memory
	ServedRemote int64 // remote misses this node's memory served to other nodes
	TLBMiss      int64 // TLB misses taken on this node inside the array
}

// ArrayInfo is the attribution record and heat map for one source array.
type ArrayInfo struct {
	Name  string // unit.array
	Bytes int64
	Nodes []NodeHeat // indexed by node

	// Spec is the array's distribution rendered as directive text
	// ("distribute(block,*)"), or "" for undistributed arrays. It tracks
	// redistribution: rtl re-registers ownership on every c$redistribute.
	Spec string
	// pageOwner maps virtual page -> node the current distribution
	// assigns the page to (page-granularity, last-owner-wins at portion
	// boundaries, matching the §4.2 placement). nil when no ownership was
	// registered.
	pageOwner map[int64]int
}

// OwnerOf returns the node the registered ownership map assigns to a
// virtual page, or -1 when unknown.
func (a *ArrayInfo) OwnerOf(vpage int64) int {
	if a.pageOwner == nil {
		return -1
	}
	if n, ok := a.pageOwner[vpage]; ok {
		return n
	}
	return -1
}

// OwnedPages counts the pages the ownership map assigns to each node.
func (a *ArrayInfo) OwnedPages(nnodes int) []int64 {
	out := make([]int64, nnodes)
	for _, n := range a.pageOwner {
		if n >= 0 && n < nnodes {
			out[n]++
		}
	}
	return out
}

// Misses sums the local and remote misses over all nodes.
func (a *ArrayInfo) Misses() (local, remote int64) {
	for _, n := range a.Nodes {
		local += n.LocalMiss
		remote += n.RemoteMiss
	}
	return
}

// PageHeat is the per-virtual-page miss record.
type PageHeat struct {
	Home         int // home node at the last recorded miss
	Local        int64
	Remote       int64
	RemoteByNode []int64 // remote misses by the accessing node
}

// ProcObs is the recorder's per-processor view: the subset of the memory
// system's ProcStats that flows through observability events, accumulated
// from the recorder event stream itself so that per-proc snapshot deltas
// are a pure function of that stream.
type ProcObs struct {
	L1Miss     int64 `json:"l1_miss"`
	LocalMiss  int64 `json:"l2_miss_local"`
	RemoteMiss int64 `json:"l2_miss_remote"`
	TLBMiss    int64 `json:"tlb_miss"`
	MissCyc    int64 `json:"miss_cyc"`    // L2 fetch latency (local + remote)
	TLBCyc     int64 `json:"tlb_cyc"`     // TLB refill cycles
	BWWaitCyc  int64 `json:"bwq_cyc"`     // node-memory bandwidth queuing
	BarrierCyc int64 `json:"barrier_cyc"` // barrier wait cycles
}

func (p ProcObs) isZero() bool { return p == ProcObs{} }

func (p *ProcObs) sub(o ProcObs) ProcObs {
	return ProcObs{
		L1Miss: p.L1Miss - o.L1Miss, LocalMiss: p.LocalMiss - o.LocalMiss,
		RemoteMiss: p.RemoteMiss - o.RemoteMiss, TLBMiss: p.TLBMiss - o.TLBMiss,
		MissCyc: p.MissCyc - o.MissCyc, TLBCyc: p.TLBCyc - o.TLBCyc,
		BWWaitCyc: p.BWWaitCyc - o.BWWaitCyc, BarrierCyc: p.BarrierCyc - o.BarrierCyc,
	}
}

// RegionStats is the cycle breakdown for one parallel region (or the
// serial phase, recorded under the name "(serial)"). Cycles are summed
// over the participating processors, so fractions of Cycles are fractions
// of aggregate processor time, as in the paper's SpeedShop numbers.
type RegionStats struct {
	Name        string
	File        string
	Line        int
	Invocations int64
	Procs       int
	Cycles      int64

	LocalMissCyc  int64
	RemoteMissCyc int64
	TLBCyc        int64
	BWWaitCyc     int64
	BarrierCyc    int64
	RedistCyc     int64

	L1Miss        int64
	LocalMiss     int64
	RemoteMiss    int64
	TLBMiss       int64
	InvSent       int64
	Interventions int64
}

// ComputeCyc is what remains of Cycles after the memory-system and
// synchronization components: instruction issue plus cache-hit time.
func (r *RegionStats) ComputeCyc() int64 {
	c := r.Cycles - r.LocalMissCyc - r.RemoteMissCyc - r.TLBCyc - r.BWWaitCyc - r.BarrierCyc - r.RedistCyc
	if c < 0 {
		c = 0
	}
	return c
}

// TLBFrac is the fraction of region time spent in TLB refill.
func (r *RegionStats) TLBFrac() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.TLBCyc) / float64(r.Cycles)
}

type addrRange struct {
	lo, hi int64
	arr    *ArrayInfo
}

// SerialRegion is the pseudo-region name for code outside doacross
// regions.
const SerialRegion = "(serial)"

// Recorder is the event sink. All hook methods are safe to call on a nil
// receiver (no-op), but producers guard with a nil check anyway so the
// disabled path is a single compare.
type Recorder struct {
	cfg    *machine.Config
	nnodes int
	pshift uint

	now int64 // latest simulated clock observed (timeline placement)

	counts [nKinds]int64

	// Attribution: address ranges -> arrays, lazily re-sorted after
	// registration.
	ranges []addrRange
	sorted bool
	arrays []*ArrayInfo
	byName map[string]*ArrayInfo

	pages []*PageHeat // indexed by virtual page

	regions  []*RegionStats
	byRegion map[string]*RegionStats
	cur      *RegionStats
	serial   *RegionStats

	regionStart int64
	regionProcs int
	serialMark  int64

	poolBytes   int64
	redistPages int64

	meta      map[string]string
	metaOrder []string

	trace  *Trace
	series *Series

	// procObs accumulates the per-processor event view (see ProcObs).
	procObs []ProcObs
}

// NewRecorder creates a recorder for one run on the given machine.
func NewRecorder(cfg *machine.Config) *Recorder {
	shift := uint(0)
	for 1<<shift < cfg.PageBytes {
		shift++
	}
	r := &Recorder{
		cfg:      cfg,
		nnodes:   cfg.NNodes(),
		pshift:   shift,
		byName:   map[string]*ArrayInfo{},
		byRegion: map[string]*RegionStats{},
		meta:     map[string]string{},
		procObs:  make([]ProcObs, cfg.NProcs),
	}
	r.serial = &RegionStats{Name: SerialRegion, Invocations: 1, Procs: 1}
	r.regions = append(r.regions, r.serial)
	r.byRegion[SerialRegion] = r.serial
	r.cur = r.serial
	return r
}

// Config returns the machine the recorder was built for.
func (r *Recorder) Config() *machine.Config { return r.cfg }

// Count returns the total number of events of one kind.
func (r *Recorder) Count(k Kind) int64 { return r.counts[k] }

// Counts returns every non-zero event count keyed by kind name.
func (r *Recorder) Counts() map[string]int64 {
	out := map[string]int64{}
	for k := Kind(0); k < nKinds; k++ {
		if r.counts[k] != 0 {
			out[k.String()] = r.counts[k]
		}
	}
	return out
}

// SetMeta attaches a build/run annotation (toolchain options, source
// names) shown in profile headers.
func (r *Recorder) SetMeta(key, value string) {
	if r == nil {
		return
	}
	if _, ok := r.meta[key]; !ok {
		r.metaOrder = append(r.metaOrder, key)
	}
	r.meta[key] = value
}

// Meta returns the annotation for key ("" when unset).
func (r *Recorder) Meta(key string) string { return r.meta[key] }

// --- attribution registration (rtl) ---

// RegisterArray records the address ranges backing one source array, so
// misses can be attributed back to it. Reshaped arrays register one range
// per portion; regular and static arrays register their base range.
// Re-registering a name replaces its ranges (accumulated heat is kept), so
// the call is idempotent: rtl registers at load and again whenever the
// array's storage mapping changes.
func (r *Recorder) RegisterArray(name string, ranges [][2]int64) {
	if r == nil {
		return
	}
	ai := r.byName[name]
	if ai == nil {
		ai = &ArrayInfo{Name: name, Nodes: make([]NodeHeat, r.nnodes)}
		r.byName[name] = ai
		r.arrays = append(r.arrays, ai)
	} else if ai.Bytes > 0 {
		// Replace, don't append: drop the ranges registered earlier.
		kept := r.ranges[:0]
		for _, rg := range r.ranges {
			if rg.arr != ai {
				kept = append(kept, rg)
			}
		}
		r.ranges = kept
		ai.Bytes = 0
	}
	for _, rg := range ranges {
		if rg[1] <= rg[0] {
			continue
		}
		ai.Bytes += rg[1] - rg[0]
		r.ranges = append(r.ranges, addrRange{lo: rg[0], hi: rg[1], arr: ai})
	}
	r.sorted = false
}

// SetArrayOwnership records (or, after a c$redistribute, replaces) the
// distribution and page-ownership map of a registered array: spec is the
// directive text, pageOwner maps virtual page -> owning node. rtl derives
// the map from the runtime distribution state with the same
// last-owner-wins boundary-page rule the §4.2 placement uses, so the
// recorder's view of "who should serve this page" always matches the
// distribution currently in force.
func (r *Recorder) SetArrayOwnership(name, spec string, pageOwner map[int64]int) {
	if r == nil {
		return
	}
	ai := r.byName[name]
	if ai == nil {
		ai = &ArrayInfo{Name: name, Nodes: make([]NodeHeat, r.nnodes)}
		r.byName[name] = ai
		r.arrays = append(r.arrays, ai)
	}
	ai.Spec = spec
	ai.pageOwner = pageOwner
}

// Arrays returns the registered arrays in registration order.
func (r *Recorder) Arrays() []*ArrayInfo { return r.arrays }

// ArrayHeat returns the heat map for a registered array, or nil.
func (r *Recorder) ArrayHeat(name string) *ArrayInfo { return r.byName[name] }

func (r *Recorder) arrayAt(addr int64) *ArrayInfo {
	if !r.sorted {
		sort.Slice(r.ranges, func(i, j int) bool { return r.ranges[i].lo < r.ranges[j].lo })
		r.sorted = true
	}
	i := sort.Search(len(r.ranges), func(i int) bool { return r.ranges[i].hi > addr })
	if i < len(r.ranges) && r.ranges[i].lo <= addr {
		return r.ranges[i].arr
	}
	return nil
}

func (r *Recorder) pageAt(addr int64) *PageHeat {
	vp := addr >> r.pshift
	for int64(len(r.pages)) <= vp {
		r.pages = append(r.pages, nil)
	}
	ph := r.pages[vp]
	if ph == nil {
		ph = &PageHeat{Home: -1, RemoteByNode: make([]int64, r.nnodes)}
		r.pages[vp] = ph
	}
	return ph
}

// Page returns the heat record of one virtual page (nil when the page
// never missed).
func (r *Recorder) Page(vpage int64) *PageHeat {
	if vpage < 0 || vpage >= int64(len(r.pages)) {
		return nil
	}
	return r.pages[vpage]
}

// NPages returns the number of virtual pages tracked.
func (r *Recorder) NPages() int64 { return int64(len(r.pages)) }

// --- memsim hooks ---

// advanceNow moves the recorder's simulated-time watermark forward and
// fires any due snapshot sample. Every hook that learns a clock funnels
// through here, so the sampling decision is a pure function of the event
// stream.
func (r *Recorder) advanceNow(clock int64) {
	if clock > r.now {
		r.now = clock
	}
	if r.series != nil && r.now >= r.series.nextAt {
		r.series.sample(r, false)
	}
}

// L1Miss records n primary-cache misses by processor p. Batched counts
// come from the memsim run fast path; n identical events aggregate
// exactly as n single calls would.
func (r *Recorder) L1Miss(p, n int) {
	if r != nil {
		r.counts[KL1Miss] += int64(n)
		r.cur.L1Miss += int64(n)
		r.procObs[p].L1Miss += int64(n)
	}
}

// L2Miss records n identical secondary-cache misses: the accessing
// processor, its node, the home (serving) node, the missed address, and
// the per-miss fetch latency (excluding queuing, reported separately
// through BWWait). A count of n aggregates exactly as n single calls at
// the same clock would — heat maps, series rows and counters all scale
// by n.
func (r *Recorder) L2Miss(proc, accNode, homeNode int, addr, missCyc, clock int64, n int64) {
	if r != nil {
		r.l2Miss(proc, accNode, homeNode, addr, missCyc, clock, n)
	}
}

func (r *Recorder) l2Miss(proc, accNode, homeNode int, addr, missCyc, clock int64, n int64) {
	po := &r.procObs[proc]
	po.MissCyc += missCyc * n
	remote := accNode != homeNode
	if remote {
		r.counts[KL2MissRemote] += n
		r.cur.RemoteMiss += n
		r.cur.RemoteMissCyc += missCyc * n
		po.RemoteMiss += n
	} else {
		r.counts[KL2MissLocal] += n
		r.cur.LocalMiss += n
		r.cur.LocalMissCyc += missCyc * n
		po.LocalMiss += n
	}
	ph := r.pageAt(addr)
	ph.Home = homeNode
	if remote {
		ph.Remote += n
		ph.RemoteByNode[accNode] += n
	} else {
		ph.Local += n
	}
	if ai := r.arrayAt(addr); ai != nil {
		if remote {
			ai.Nodes[accNode].RemoteMiss += n
			ai.Nodes[homeNode].ServedRemote += n
		} else {
			ai.Nodes[accNode].LocalMiss += n
		}
	}
	r.advanceNow(clock)
}

// TLBMiss records n identical TLB refills by processor proc on accNode
// at addr, costing cyc cycles each.
func (r *Recorder) TLBMiss(proc, accNode int, addr, cyc, clock int64, n int64) {
	if r != nil {
		r.tlbMiss(proc, accNode, addr, cyc, clock, n)
	}
}

func (r *Recorder) tlbMiss(proc, accNode int, addr, cyc, clock int64, n int64) {
	r.counts[KTLBMiss] += n
	r.cur.TLBMiss += n
	r.cur.TLBCyc += cyc * n
	po := &r.procObs[proc]
	po.TLBMiss += n
	po.TLBCyc += cyc * n
	if ai := r.arrayAt(addr); ai != nil {
		ai.Nodes[accNode].TLBMiss += n
	}
	r.advanceNow(clock)
}

// Invalidations records n sharer invalidations sent by one upgrade.
func (r *Recorder) Invalidations(n int) {
	if r != nil {
		r.counts[KInvalidation] += int64(n)
		r.cur.InvSent += int64(n)
	}
}

// Intervention records a cache-to-cache transfer.
func (r *Recorder) Intervention() {
	if r != nil {
		r.counts[KIntervention]++
		r.cur.Interventions++
	}
}

// BWWait records n waits of wait cycles each that processor proc spent
// queued behind a node memory's bandwidth window.
func (r *Recorder) BWWait(proc, node int, wait int64, n int64) {
	if r != nil {
		r.counts[KBWWait] += n
		r.cur.BWWaitCyc += wait * n
		r.procObs[proc].BWWaitCyc += wait * n
		_ = node
	}
}

// BarrierWait records one processor's wait at a barrier: its clock before
// release and the cycles the release added.
func (r *Recorder) BarrierWait(proc int, clockBefore, wait int64) {
	if r != nil {
		r.barrierWait(proc, clockBefore, wait)
	}
}

func (r *Recorder) barrierWait(proc int, clockBefore, wait int64) {
	r.counts[KBarrierWait]++
	r.cur.BarrierCyc += wait
	r.procObs[proc].BarrierCyc += wait
	if r.trace != nil && wait > 0 {
		r.trace.span("barrier", "sync", proc, r.ts(clockBefore), r.dur(wait), nil)
	}
	r.advanceNow(clockBefore + wait)
}

// --- ospage hooks ---

// PlaceCause says why a page landed where it did.
type PlaceCause uint8

const (
	PlaceFirstTouch PlaceCause = iota
	PlaceRoundRobin
	PlaceExplicit
)

var placeNames = [...]string{"first-touch", "round-robin", "explicit"}

func (c PlaceCause) String() string { return placeNames[c] }

// PagePlaced records a page placement decision. spilled means the
// preferred node was full and the OS fell back to another node.
func (r *Recorder) PagePlaced(vpage int64, node int, cause PlaceCause, spilled bool) {
	if r != nil {
		r.pagePlaced(vpage, node, cause, spilled)
	}
}

func (r *Recorder) pagePlaced(vpage int64, node int, cause PlaceCause, spilled bool) {
	r.counts[KPagePlace]++
	if spilled {
		r.counts[KPageSpill]++
	}
	if r.trace != nil {
		name := "place " + cause.String()
		if spilled {
			name = "spill " + cause.String()
		}
		r.trace.instant(name, "pages", node, r.ts(r.now),
			map[string]any{"vpage": vpage, "node": node})
	}
}

// PageMigrated records a page moving between nodes (redistribution).
func (r *Recorder) PageMigrated(vpage int64, from, to int) {
	if r != nil {
		r.counts[KPageMigrate]++
		if r.trace != nil {
			r.trace.instant("migrate", "pages", to, r.ts(r.now),
				map[string]any{"vpage": vpage, "from": from, "to": to})
		}
	}
}

// --- rtl hooks ---

// Redistribute records a c$redistribute call: the array, pages moved and
// the cycle span the collective (or the serial reference model's page
// walk) occupied. The span is folded into the current region's
// RedistCyc so profiles report redistribution as its own cycle category
// instead of undifferentiated compute.
func (r *Recorder) Redistribute(array string, pages int, proc int, start, end int64) {
	if r != nil {
		r.counts[KRedistribute]++
		r.redistPages += int64(pages)
		if end > start {
			r.cur.RedistCyc += end - start
		}
		if r.trace != nil {
			r.trace.span("redistribute "+array, "redist", proc, r.ts(start), r.dur(end-start),
				map[string]any{"pages": pages})
		}
		r.advanceNow(end)
	}
}

// RedistRound records one round of the scheduled redistribution collective:
// its ordinal, the number of node-to-node bulk transfers it carried, and
// its cycle span (all rounds execute back to back inside the enclosing
// Redistribute span).
func (r *Recorder) RedistRound(round, transfers int, start, end int64) {
	if r != nil {
		r.counts[KRedistRound]++
		if r.trace != nil {
			r.trace.span(fmt.Sprintf("redist round %d", round), "redist", 0,
				r.ts(start), r.dur(end-start), map[string]any{"transfers": transfers})
		}
		r.advanceNow(end)
	}
}

// RedistPages returns the total pages moved by redistributions.
func (r *Recorder) RedistPages() int64 { return r.redistPages }

// RedistCycles sums the redistribution cycle spans over all regions — the
// total wall-clock time the run spent inside c$redistribute.
func (r *Recorder) RedistCycles() int64 {
	var t int64
	for _, rs := range r.regions {
		t += rs.RedistCyc
	}
	return t
}

// PoolAlloc records a reshaped-pool chunk allocation on a processor's
// node.
func (r *Recorder) PoolAlloc(proc, node int, bytes int64) {
	if r != nil {
		r.counts[KPoolAlloc]++
		r.poolBytes += bytes
		_, _ = proc, node
	}
}

// PoolBytes returns the total bytes carved into reshaped pools.
func (r *Recorder) PoolBytes() int64 { return r.poolBytes }

// ArgCheck records a §6 runtime argument check and whether it failed.
func (r *Recorder) ArgCheck(failed bool) {
	if r != nil {
		r.counts[KArgCheck]++
		if failed {
			r.counts[KArgCheckFail]++
		}
	}
}

// --- exec hooks ---

// RegionBegin marks the dispatch of a doacross region across nprocs
// processors at simulated time start.
func (r *Recorder) RegionBegin(name, file string, line int, start int64, nprocs int) {
	if r != nil {
		r.regionBegin(name, file, line, start, nprocs)
	}
}

func (r *Recorder) regionBegin(name, file string, line int, start int64, nprocs int) {
	r.counts[KRegion]++
	rs := r.byRegion[name]
	if rs == nil {
		rs = &RegionStats{Name: name, File: file, Line: line}
		r.byRegion[name] = rs
		r.regions = append(r.regions, rs)
	}
	rs.Invocations++
	if nprocs > rs.Procs {
		rs.Procs = nprocs
	}
	// Close the serial segment leading up to the fork.
	if start > r.serialMark {
		r.serial.Cycles += start - r.serialMark
	}
	r.cur = rs
	r.regionStart = start
	r.regionProcs = nprocs
	r.advanceNow(start)
	if r.trace != nil {
		r.trace.counters(r.ts(start), r.counts[KL2MissLocal], r.counts[KL2MissRemote], r.counts[KTLBMiss])
		r.trace.flushSink()
	}
}

// RegionEnd closes the current region: ends holds each processor's clock
// when its work finished (before the implicit barrier), barrierEnd the
// common clock after the closing barrier.
func (r *Recorder) RegionEnd(ends []int64, barrierEnd int64) {
	if r != nil {
		r.regionEnd(ends, barrierEnd)
	}
}

func (r *Recorder) regionEnd(ends []int64, barrierEnd int64) {
	rs := r.cur
	rs.Cycles += (barrierEnd - r.regionStart) * int64(r.regionProcs)
	if r.trace != nil {
		for p, e := range ends {
			r.trace.span(rs.Name, "region", p, r.ts(r.regionStart), r.dur(e-r.regionStart), nil)
		}
		r.trace.counters(r.ts(barrierEnd), r.counts[KL2MissLocal], r.counts[KL2MissRemote], r.counts[KTLBMiss])
	}
	r.serialMark = barrierEnd
	r.cur = r.serial
	r.advanceNow(barrierEnd)
	if r.trace != nil {
		r.trace.flushSink()
	}
}

// QuantumSwitch records the region scheduler switching to another
// processor's thread.
func (r *Recorder) QuantumSwitch(proc int) {
	if r != nil {
		r.counts[KQuantumSwitch]++
		_ = proc
	}
}

// Finish closes the trailing serial segment at the final clock, emits the
// final snapshot row, and drains any attached stream sink.
func (r *Recorder) Finish(finalClock int64) {
	if r == nil {
		return
	}
	if finalClock > r.serialMark {
		r.serial.Cycles += finalClock - r.serialMark
		r.serialMark = finalClock
	}
	if finalClock > r.now {
		r.now = finalClock
	}
	if r.trace != nil {
		r.trace.counters(r.ts(finalClock), r.counts[KL2MissLocal], r.counts[KL2MissRemote], r.counts[KTLBMiss])
	}
	if r.series != nil {
		r.series.sample(r, true)
	}
	if r.trace != nil {
		r.trace.flushSink()
	}
}

// ProcObsAll returns a copy of the per-processor event-stream counters.
func (r *Recorder) ProcObsAll() []ProcObs {
	out := make([]ProcObs, len(r.procObs))
	copy(out, r.procObs)
	return out
}

// Now returns the latest simulated clock the recorder has observed.
func (r *Recorder) Now() int64 { return r.now }

// Regions returns the per-region breakdowns, serial phase first, then in
// first-dispatch order.
func (r *Recorder) Regions() []*RegionStats { return r.regions }

// Region returns one region's stats by name, or nil.
func (r *Recorder) Region(name string) *RegionStats { return r.byRegion[name] }

// TotalCycles sums region cycles (aggregate processor time observed).
func (r *Recorder) TotalCycles() int64 {
	var t int64
	for _, rs := range r.regions {
		t += rs.Cycles
	}
	return t
}

// TLBFraction is the overall fraction of observed processor time spent in
// TLB refill — the paper's "TLB time" number (§8.3).
func (r *Recorder) TLBFraction() float64 {
	var tlb, tot int64
	for _, rs := range r.regions {
		tlb += rs.TLBCyc
		tot += rs.Cycles
	}
	if tot == 0 {
		return 0
	}
	return float64(tlb) / float64(tot)
}

// ts converts a cycle count to trace microseconds.
func (r *Recorder) ts(cycles int64) float64 {
	return float64(cycles) / float64(r.cfg.ClockMHz)
}

func (r *Recorder) dur(cycles int64) float64 {
	if cycles < 0 {
		return 0
	}
	return float64(cycles) / float64(r.cfg.ClockMHz)
}
