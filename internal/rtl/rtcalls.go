package rtl

import (
	"fmt"

	"dsmdist/internal/bytecode"
	"dsmdist/internal/codegen"
	"dsmdist/internal/dist"
)

// RTCall implements bytecode.Runtime.
func (rt *Runtime) RTCall(t *bytecode.Thread, id int, args []int64) (int64, error) {
	switch id {
	case bytecode.RTBarrier:
		// The interpreter turns this sentinel into AtBarrier status;
		// the executor rendezvouses region threads and treats a
		// barrier in serial code as a no-op.
		return 0, bytecode.ErrBarrier

	case bytecode.RTRedist:
		return rt.redistribute(t, int(args[0]))

	case bytecode.RTPortionLo, bytecode.RTPortionHi:
		return rt.portionBound(id, args)

	case bytecode.RTArgPush:
		return 0, rt.argPush(args[0], int(args[1]))

	case bytecode.RTArgPop:
		rt.argPop(int(args[0]))
		return 0, nil

	case bytecode.RTArgCheck:
		return 0, rt.argCheck(args[0], int(args[1]))

	case bytecode.RTTimerStart:
		// Pin the timer to the starting processor's clock; a stop
		// executed elsewhere reads the same clock, so cross-processor
		// start/stop pairs cannot yield skewed or negative elapsed
		// cycles.
		rt.TimerProc = t.Proc
		rt.TimerStart = rt.Sys.Clock(t.Proc)
		rt.TimerRunning = true
		return 0, nil

	case bytecode.RTTimerStop:
		if rt.TimerRunning {
			rt.TimerCycles += rt.Sys.Clock(rt.TimerProc) - rt.TimerStart
			rt.TimerRunning = false
		}
		return 0, nil

	case bytecode.RTNestGrid:
		// Processor-grid factorization for schedtype(simple) nests
		// without affinity: the MP runtime blocks the nested iteration
		// space over a near-square grid, like a (block,block,...)
		// distribution of the loops themselves.
		nd := int(args[0])
		d := int(args[1])
		if nd < 1 || d < 0 || d >= nd {
			return 0, fmt.Errorf("rtl: bad nest grid request (%d,%d)", nd, d)
		}
		spec := dist.Spec{Dims: make([]dist.Dim, nd)}
		for i := range spec.Dims {
			spec.Dims[i].Kind = dist.Block
		}
		grid, err := dist.NewGrid(spec, rt.Cfg.NProcs)
		if err != nil {
			return 0, err
		}
		return int64(grid.DimProcs[d]), nil

	case bytecode.RTAllocStack:
		// Dynamically sized local arrays (§3.2: "including dynamically
		// sized local arrays"): automatic storage carved from the
		// calling processor's stack segment, freed with the frame.
		n := (args[0] + 7) &^ 7
		base := (t.SP + 7) &^ 7
		if base+n > t.StackEnd {
			return 0, fmt.Errorf("rtl: dynamic local array of %d bytes overflows the stack", n)
		}
		t.SP = base + n
		for a := base; a < base+n; a += 8 {
			rt.Sys.Poke(a, 0)
		}
		return base, nil

	case bytecode.RTDynGrab:
		// schedtype(dynamic) / schedtype(gss): hand the caller the next
		// chunk of iterations from the shared cursor. Returns
		// start*2^31 + len; len 0 means the loop is exhausted. The
		// caller is charged a synchronization cost per grab.
		total, chunk, mode := args[0], args[1], args[2]
		if chunk < 1 {
			chunk = 1
		}
		if total >= dynPackLimit {
			// The packed result holds both fields in one int64; a trip
			// count at or beyond 2^31 would silently corrupt them, so
			// reject it loudly instead.
			return 0, fmt.Errorf(
				"rtl: schedtype(dynamic/gss) loop has %d iterations, exceeding the %d (2^31-1) limit of the packed start<<31|len chunk encoding",
				total, dynPackLimit-1)
		}
		start := rt.DynCursor
		if start >= total {
			return 0, nil
		}
		grab := chunk
		if mode == 1 { // guided self-scheduling: remaining / 2P
			g := (total - start + int64(2*rt.Cfg.NProcs) - 1) / int64(2*rt.Cfg.NProcs)
			if g > grab {
				grab = g
			}
		}
		if start+grab > total {
			grab = total - start
		}
		rt.DynCursor = start + grab
		rt.Sys.AddCycles(t.Proc, 40) // shared-counter synchronization
		return start<<31 | grab, nil
	}
	return 0, fmt.Errorf("rtl: unknown runtime call %d", id)
}

// dynPackLimit bounds schedtype(dynamic)/gss trip counts: RTDynGrab packs
// its result as start<<31 | len, so start and len must each fit in 31 bits.
// Loops with total < 2^31 can never produce an out-of-range start or len.
const dynPackLimit = int64(1) << 31

// Scheduled-collective cost constants.
const (
	// redistSetupCyc is the collective's fixed overhead: computing the
	// intersection schedule and dispatching the participants, paid once
	// by every processor at the rendezvous.
	redistSetupCyc = 2000
	// dmaSetupCyc is the per-transfer overhead of programming one
	// node-to-node DMA stream and rewriting the page mappings it covers.
	dmaSetupCyc = 2000
)

// redistribute implements c$redistribute (§3.3, §4.2): remap the array's
// pages to the new distribution and update the descriptor.
//
// By default the data motion is modeled as a communication-scheduled
// collective: the old×new ownership intersection yields per-(src,dst)-node
// transfer sets, a bipartite edge coloring packs them into rounds in which
// every node sends and receives at most one bulk stream, and all nodes
// move their transfers concurrently through the memory system's bandwidth
// windows (redistCollective). With RedistSerial the legacy model is used
// instead: a serial page walk charging a flat per-page cost to the calling
// processor.
func (rt *Runtime) redistribute(t *bytecode.Thread, planID int) (int64, error) {
	if planID < 0 || planID >= len(rt.Res.Redists) {
		return 0, fmt.Errorf("rtl: bad redistribute id %d", planID)
	}
	rp := rt.Res.Redists[planID]
	st := rt.Arrays[rp.Array]
	if st.Plan.Spec == nil || st.Plan.Spec.Reshape {
		return 0, fmt.Errorf("rtl: redistribute of non-regular array %s", st.Plan.Name)
	}

	spec := rp.Spec
	grid, err := dist.NewGrid(spec, rt.Cfg.NProcs)
	if err != nil {
		return 0, err
	}
	intDims := make([]int, len(st.Plan.Dims))
	for i, d := range st.Plan.Dims {
		intDims[i] = int(d)
	}
	maps, err := grid.Maps(intDims)
	if err != nil {
		return 0, err
	}
	oldGrid, oldMaps := st.Grid, st.Maps
	st.Grid, st.Maps = grid, maps
	sp := spec
	st.Plan.Spec = &sp
	rt.writeDescriptor(st)

	start := rt.Sys.Clock(t.Proc)
	var moved int
	if rt.RedistSerial {
		moved = rt.placeRegular(st, true)
		// Legacy cost model: page copy plus remap overhead per moved
		// page, all charged to the caller.
		perPage := int64(rt.Cfg.PageBytes/8) + 2000
		rt.Sys.AddCycles(t.Proc, int64(moved)*perPage)
	} else {
		moved = rt.redistCollective(st, oldGrid, oldMaps)
	}
	rt.RedistPages += int64(moved)
	if rt.Rec != nil {
		// Re-register the ownership map so events after the
		// redistribution attribute to the new owners, not the load-time
		// distribution.
		rt.registerArrayObs(rt.Rec, st)
		rt.Rec.Redistribute(st.Plan.Unit+"."+st.Plan.Name, moved, t.Proc,
			start, rt.Sys.Clock(t.Proc))
	}
	return int64(moved), nil
}

// redistCollective performs the scheduled redistribution: every processor
// rendezvouses, the pages are remapped (with cache/TLB invalidation, as in
// the serial model), and the inter-node element traffic computed by
// dist.Intersect is streamed in dist.Schedule's contention-free rounds —
// each source node's lead processor drives one DMA bulk transfer per round,
// charging the source and destination bandwidth windows, and all clocks
// advance together at each round boundary. Returns the number of pages
// whose home node changed.
func (rt *Runtime) redistCollective(st *ArrayState, oldGrid dist.Grid, oldMaps []dist.DimMap) int {
	cfg := rt.Cfg
	np := cfg.NProcs
	all := make([]int, np)
	for p := range all {
		all[p] = p
	}
	// Rendezvous: the collective involves every processor, so the slowest
	// clock gates the start, and everyone pays the schedule setup.
	m := rt.Sys.MaxClock(all) + redistSetupCyc
	for p := 0; p < np; p++ {
		rt.Sys.SetClock(p, m)
	}

	moved := rt.placeRegular(st, true)

	xfers := dist.Intersect(oldGrid, oldMaps, st.Grid, st.Maps, cfg.NodeOf)
	rounds := dist.Schedule(xfers)
	for ri, round := range rounds {
		roundStart := rt.Sys.Clock(0)
		for _, x := range round {
			// The first processor of the source node programs and
			// drives the stream; senders are distinct within a round,
			// so every transfer proceeds concurrently.
			driver := x.Src * cfg.ProcsPerNode
			rt.Sys.AddCycles(driver, dmaSetupCyc)
			rt.Sys.BulkTransfer(driver, x.Src, x.Dst, x.Elems*8)
		}
		end := rt.Sys.MaxClock(all)
		for p := 0; p < np; p++ {
			rt.Sys.SetClock(p, end)
		}
		if rt.Rec != nil {
			rt.Rec.RedistRound(ri, len(round), roundStart, end)
		}
	}
	return moved
}

// portionBound implements dsm_portion_lo/hi(array, dim, proc): the 1-based
// first/last global index owned by proc along dim.
func (rt *Runtime) portionBound(id int, args []int64) (int64, error) {
	st := rt.byDesc[args[0]]
	if st == nil {
		return 0, fmt.Errorf("rtl: portion intrinsic on unknown descriptor %#x", args[0])
	}
	dim := int(args[1]) - 1
	proc := int(args[2])
	if dim < 0 || dim >= len(st.Maps) {
		return 0, fmt.Errorf("rtl: portion intrinsic dim %d out of range for %s", dim+1, st.Plan.Name)
	}
	m := st.Maps[dim]
	// Map the machine processor to the dimension coordinate.
	if proc < 0 || proc >= rt.Cfg.NProcs {
		return 0, fmt.Errorf("rtl: portion intrinsic proc %d out of range", proc)
	}
	coord := 0
	if proc < st.Grid.Used {
		coord = st.Grid.Coord(proc)[dim]
	}
	rs := m.OwnedRanges(coord)
	if len(rs) == 0 {
		return 0, nil // empty portion: lo > hi convention via 0
	}
	if id == bytecode.RTPortionLo {
		return int64(rs[0].Lo + 1), nil
	}
	return int64(rs[len(rs)-1].Hi), nil
}

// --- §6 runtime argument checks ---

// argPush records an actual-argument fact keyed by the passed address
// ("we take the address being passed in and use it as an index into a
// runtime hash table").
func (rt *Runtime) argPush(addr int64, infoID int) error {
	if infoID < 0 || infoID >= len(rt.Res.Checks) {
		return fmt.Errorf("rtl: bad check id %d", infoID)
	}
	info := &rt.Res.Checks[infoID]
	rec := pushedArg{info: info}
	switch info.Kind {
	case codegen.CheckWhole:
		rec.arr = rt.byDesc[addr]
	case codegen.CheckPortion:
		// Resolve the valid dense extent from this address under the
		// runtime grid (for cyclic(k), the rest of the chunk — the
		// paper's mysub example allows at most k elements).
		if st := rt.arrayByPortionAddr(addr); st != nil {
			rec.arr = st
			rec.bytes = rt.denseExtent(st, addr)
		}
	}
	rt.argTable[addr] = append(rt.argTable[addr], rec)
	rt.pushLog = append(rt.pushLog, addr)
	return nil
}

// argPop removes the most recent n records (call return).
func (rt *Runtime) argPop(n int) {
	// Records are keyed by address; a pop removes the newest entry of
	// each of the n most recently pushed addresses. For simplicity the
	// runtime tracks a push log.
	for i := 0; i < n && len(rt.pushLog) > 0; i++ {
		addr := rt.pushLog[len(rt.pushLog)-1]
		rt.pushLog = rt.pushLog[:len(rt.pushLog)-1]
		lst := rt.argTable[addr]
		if len(lst) > 0 {
			lst = lst[:len(lst)-1]
		}
		if len(lst) == 0 {
			delete(rt.argTable, addr)
		} else {
			rt.argTable[addr] = lst
		}
	}
}

// denseExtent returns how many bytes starting at addr within a reshaped
// portion correspond to consecutive global array elements: dense to the end
// of the portion for block/star dimensions, but clipped at the first chunk
// boundary of a cyclic or cyclic(k) dimension (§3.2.1: "the size and shape
// of the portion depend on the array distribution").
func (rt *Runtime) denseExtent(st *ArrayState, addr int64) int64 {
	var base int64 = -1
	for _, b := range st.Portions {
		if addr >= b && addr < b+st.PortionBytes {
			base = b
			break
		}
	}
	if base < 0 {
		return 0
	}
	off := (addr - base) / 8 // element offset within the portion
	allowed := st.PortionBytes - (addr - base)
	strideBytes := int64(8)
	rem := off
	for _, m := range st.Maps {
		ml := int64(m.MaxPortionLen())
		od := rem % ml
		rem /= ml
		switch m.Kind {
		case dist.Cyclic, dist.BlockCyclic:
			if m.P > 1 {
				k := int64(m.K)
				run := k - od%k
				if lim := run * strideBytes; lim < allowed {
					allowed = lim
				}
			}
		}
		strideBytes *= ml
	}
	return allowed
}

// arrayByPortionAddr finds the reshaped array containing addr in one of its
// portions.
func (rt *Runtime) arrayByPortionAddr(addr int64) *ArrayState {
	for _, st := range rt.Arrays {
		if st.Portions == nil {
			continue
		}
		for _, base := range st.Portions {
			if addr >= base && addr < base+st.PortionBytes {
				return st
			}
		}
	}
	return nil
}

// argCheck validates an incoming argument against the callee's declared
// formal ("Upon entry to each subroutine, we take the incoming value for
// each parameter and use it as an index into the hash table ... generating
// a runtime error in case of a mismatch", §6).
func (rt *Runtime) argCheck(addr int64, formalID int) (err error) {
	if rt.Rec != nil {
		defer func() { rt.Rec.ArgCheck(err != nil) }()
	}
	lst := rt.argTable[addr]
	if len(lst) == 0 {
		return nil // not a reshaped actual: nothing to verify
	}
	rec := lst[len(lst)-1]
	formal := &rt.Res.Checks[formalID]

	switch rec.info.Kind {
	case codegen.CheckWhole:
		// Whole reshaped array: number of dimensions and every extent
		// must match exactly, and the distribution must agree
		// (§3.2.1).
		if formal.Spec == nil {
			return &CheckError{Msg: fmt.Sprintf(
				"%s: formal %s is not reshaped but receives whole reshaped array %s",
				formal.Unit, formal.Array, rec.info.Array)}
		}
		if len(formal.Dims) != len(rec.info.Dims) {
			return &CheckError{Msg: fmt.Sprintf(
				"%s: formal %s has %d dims, actual %s has %d",
				formal.Unit, formal.Array, len(formal.Dims), rec.info.Array, len(rec.info.Dims))}
		}
		for i := range formal.Dims {
			if formal.Dims[i] != rec.info.Dims[i] {
				return &CheckError{Msg: fmt.Sprintf(
					"%s: formal %s extent %d is %d, actual %s has %d",
					formal.Unit, formal.Array, i+1, formal.Dims[i], rec.info.Array, rec.info.Dims[i])}
			}
		}
		if rec.info.Spec != nil && !formal.Spec.Equal(*rec.info.Spec) {
			return &CheckError{Msg: fmt.Sprintf(
				"%s: formal %s distribution %s does not match actual %s",
				formal.Unit, formal.Array, formal.Spec, rec.info.Spec)}
		}
	case codegen.CheckPortion:
		// Element of a reshaped array: the formal is an ordinary
		// array whose declared size must not exceed the portion
		// (§3.2.1's mysub example).
		if formal.Spec != nil {
			return &CheckError{Msg: fmt.Sprintf(
				"%s: formal %s expects a reshaped array but receives a portion of %s",
				formal.Unit, formal.Array, rec.info.Array)}
		}
		if rec.bytes > 0 && formal.Bytes > rec.bytes {
			return &CheckError{Msg: fmt.Sprintf(
				"%s: formal %s declares %d bytes, exceeding the %d-byte portion of %s",
				formal.Unit, formal.Array, formal.Bytes, rec.bytes, rec.info.Array)}
		}
	}
	return nil
}
