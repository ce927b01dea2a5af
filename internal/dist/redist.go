// Redistribution mathematics: given an array's old and new distributions,
// compute exactly which elements change owner (the block-cyclic
// intersection sets of Sudarsan & Ribbens) and pack the inter-node traffic
// into contention-free rounds (bipartite edge coloring, as in the
// round-based collective decompositions of Rink et al.), so the runtime can
// drive c$redistribute as a scheduled collective instead of a serial page
// walk.
package dist

import "sort"

// Xfer is one node-to-node bulk transfer of a redistribution: Elems array
// elements whose owner moves from node Src to node Dst.
type Xfer struct {
	Src, Dst int
	Elems    int64
}

// runEnd returns the exclusive end of the maximal run of consecutive global
// indices starting at i that share Owner(i): the rest of i's chunk.
func (m DimMap) runEnd(i int) int { return min((i/m.K+1)*m.K, m.N) }

// dimIntersect computes the per-dimension intersection counts: cell [po][pn]
// is the number of indices owned by old-coordinate po under om and
// new-coordinate pn under nm. The walk visits each maximal run on which both
// ownerships are constant — O(boundaries), not O(N) except for cyclic — and
// is exact for every block / cyclic / cyclic(k) / * pairing.
func dimIntersect(om, nm DimMap) [][]int64 {
	counts := make([][]int64, om.P)
	for p := range counts {
		counts[p] = make([]int64, nm.P)
	}
	for i := 0; i < om.N; {
		end := om.runEnd(i)
		if e := nm.runEnd(i); e < end {
			end = e
		}
		counts[om.Owner(i)][nm.Owner(i)] += int64(end - i)
		i = end
	}
	return counts
}

// Intersect computes the full inter-node transfer set of a redistribution
// from (oldGrid, oldMaps) to (newGrid, newMaps): for every pair of linear
// grid processors the joint element count is the product of the
// per-dimension intersection counts, and counts whose source and
// destination land on different nodes (per nodeOf, which maps a linear grid
// processor to its machine node) accumulate into one Xfer per (src, dst)
// node pair. The result is sorted by (Src, Dst) and contains no
// self-transfers and no zero entries.
func Intersect(oldGrid Grid, oldMaps []DimMap, newGrid Grid, newMaps []DimMap, nodeOf func(p int) int) []Xfer {
	nd := len(oldMaps)
	per := make([][][]int64, nd)
	for d := 0; d < nd; d++ {
		per[d] = dimIntersect(oldMaps[d], newMaps[d])
	}
	newCoords := make([][]int, newGrid.Used)
	newNodes := make([]int, newGrid.Used)
	for p := 0; p < newGrid.Used; p++ {
		newCoords[p] = newGrid.Coord(p)
		newNodes[p] = nodeOf(p)
	}
	acc := map[[2]int]int64{}
	for op := 0; op < oldGrid.Used; op++ {
		oc := oldGrid.Coord(op)
		src := nodeOf(op)
		for np := 0; np < newGrid.Used; np++ {
			if newNodes[np] == src {
				continue
			}
			elems := int64(1)
			for d := 0; d < nd && elems > 0; d++ {
				elems *= per[d][oc[d]][newCoords[np][d]]
			}
			if elems > 0 {
				acc[[2]int{src, newNodes[np]}] += elems
			}
		}
	}
	out := make([]Xfer, 0, len(acc))
	for k, v := range acc {
		out = append(out, Xfer{Src: k[0], Dst: k[1], Elems: v})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Src != out[j].Src {
			return out[i].Src < out[j].Src
		}
		return out[i].Dst < out[j].Dst
	})
	return out
}

// Schedule partitions the transfers into rounds such that within a round
// every node sends at most one transfer and receives at most one transfer
// (full duplex: a node may do both simultaneously). The construction is the
// König bipartite edge coloring with alternating-path flips, so the number
// of rounds equals the maximum send- or receive-degree of any node — the
// minimum possible. The output is deterministic for a given input order.
func Schedule(xfers []Xfer) [][]Xfer {
	if len(xfers) == 0 {
		return nil
	}
	deg := map[int]int{}
	maxDeg := 0
	for _, x := range xfers {
		// Send and receive sides are independent resources, so degrees
		// are tracked separately (negative keys for receivers).
		for _, k := range [2]int{x.Src, ^x.Dst} {
			deg[k]++
			if deg[k] > maxDeg {
				maxDeg = deg[k]
			}
		}
	}
	// colS[u][c] / colR[v][c]: the edge colored c at sender u / receiver v,
	// or -1.
	colS, colR := map[int][]int{}, map[int][]int{}
	slot := func(m map[int][]int, n int) []int {
		s := m[n]
		if s == nil {
			s = make([]int, maxDeg)
			for i := range s {
				s[i] = -1
			}
			m[n] = s
		}
		return s
	}
	free := func(s []int) int {
		for c, e := range s {
			if e < 0 {
				return c
			}
		}
		return -1 // unreachable: degrees are bounded by maxDeg
	}
	color := make([]int, len(xfers))
	for e := range xfers {
		u, v := xfers[e].Src, xfers[e].Dst
		su, sv := slot(colS, u), slot(colR, v)
		a, b := free(su), free(sv)
		if sv[a] >= 0 {
			// a busy at v: flip the (a,b)-alternating path starting at
			// v's a-edge. The path cannot reach u (u's sender side has no
			// a-edge) nor return to v (v's receiver side has no b-edge),
			// so after the swap a is free at both endpoints.
			var path []int
			node, onRecv, c := v, true, a
			for {
				var arr []int
				if onRecv {
					arr = slot(colR, node)
				} else {
					arr = slot(colS, node)
				}
				e2 := arr[c]
				if e2 < 0 {
					break
				}
				path = append(path, e2)
				if onRecv {
					node = xfers[e2].Src
				} else {
					node = xfers[e2].Dst
				}
				onRecv = !onRecv
				if c == a {
					c = b
				} else {
					c = a
				}
			}
			for _, e2 := range path {
				colS[xfers[e2].Src][color[e2]] = -1
				colR[xfers[e2].Dst][color[e2]] = -1
			}
			for _, e2 := range path {
				nc := a
				if color[e2] == a {
					nc = b
				}
				color[e2] = nc
				colS[xfers[e2].Src][nc] = e2
				colR[xfers[e2].Dst][nc] = e2
			}
		}
		color[e] = a
		su[a] = e
		sv[a] = e
	}
	rounds := make([][]Xfer, maxDeg)
	for e, x := range xfers {
		rounds[color[e]] = append(rounds[color[e]], x)
	}
	out := rounds[:0]
	for _, r := range rounds {
		if len(r) > 0 {
			out = append(out, r)
		}
	}
	return out
}
