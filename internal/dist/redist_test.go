package dist

import (
	"testing"
)

// bruteIntersect recomputes the per-(src,dst) node transfer counts by
// walking every element of the array, the definitionally-correct O(N^d)
// reference the closed-form intersection must match.
func bruteIntersect(oldGrid Grid, oldMaps []DimMap, newGrid Grid, newMaps []DimMap, nodeOf func(int) int) map[[2]int]int64 {
	acc := map[[2]int]int64{}
	idx := make([]int, len(oldMaps))
	total := 1
	for _, m := range oldMaps {
		total *= m.N
	}
	for n := 0; n < total; n++ {
		src := nodeOf(oldGrid.OwnerLinear(oldMaps, idx))
		dst := nodeOf(newGrid.OwnerLinear(newMaps, idx))
		if src != dst {
			acc[[2]int{src, dst}]++
		}
		for d := 0; d < len(idx); d++ {
			idx[d]++
			if idx[d] < oldMaps[d].N {
				break
			}
			idx[d] = 0
		}
	}
	return acc
}

func mkGrid(t *testing.T, spec Spec, nprocs int, extents []int) (Grid, []DimMap) {
	t.Helper()
	g, err := NewGrid(spec, nprocs)
	if err != nil {
		t.Fatal(err)
	}
	m, err := g.Maps(extents)
	if err != nil {
		t.Fatal(err)
	}
	return g, m
}

func TestIntersectMatchesBruteForce(t *testing.T) {
	nodeOf := func(p int) int { return p / 2 } // ProcsPerNode = 2
	cases := []struct {
		name     string
		old, new Spec
		extents  []int
		nprocs   int
	}{
		{"block-to-cyclic", Spec{Dims: []Dim{{Kind: Block}}}, Spec{Dims: []Dim{{Kind: Cyclic}}}, []int{97}, 8},
		{"cyclic3-to-block", Spec{Dims: []Dim{{Kind: BlockCyclic, Chunk: 3}}}, Spec{Dims: []Dim{{Kind: Block}}}, []int{100}, 8},
		{"block-star-to-star-block", Spec{Dims: []Dim{{Kind: Block}, {Kind: Star}}}, Spec{Dims: []Dim{{Kind: Star}, {Kind: Block}}}, []int{24, 36}, 8},
		{"cyclic5-to-cyclic2", Spec{Dims: []Dim{{Kind: BlockCyclic, Chunk: 5}}}, Spec{Dims: []Dim{{Kind: BlockCyclic, Chunk: 2}}}, []int{143}, 6},
		{"2d-block-block-to-cyclic-block", Spec{Dims: []Dim{{Kind: Block}, {Kind: Block}}}, Spec{Dims: []Dim{{Kind: Cyclic}, {Kind: Block}}}, []int{20, 18}, 8},
		{"cyclic200-past-extent-to-cyclic", Spec{Dims: []Dim{{Kind: BlockCyclic, Chunk: 200}}}, Spec{Dims: []Dim{{Kind: Cyclic}}}, []int{37}, 8},
		{"block-more-procs-than-elements-to-cyclic2", Spec{Dims: []Dim{{Kind: Block}}}, Spec{Dims: []Dim{{Kind: BlockCyclic, Chunk: 2}}}, []int{5}, 8},
		{"same-spec-no-motion", Spec{Dims: []Dim{{Kind: Block}, {Kind: Star}}}, Spec{Dims: []Dim{{Kind: Block}, {Kind: Star}}}, []int{33, 7}, 4},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			og, om := mkGrid(t, tc.old, tc.nprocs, tc.extents)
			ng, nm := mkGrid(t, tc.new, tc.nprocs, tc.extents)
			got := Intersect(og, om, ng, nm, nodeOf)
			want := bruteIntersect(og, om, ng, nm, nodeOf)
			gotMap := map[[2]int]int64{}
			for _, x := range got {
				if x.Src == x.Dst {
					t.Errorf("self-transfer %+v", x)
				}
				if x.Elems <= 0 {
					t.Errorf("non-positive transfer %+v", x)
				}
				gotMap[[2]int{x.Src, x.Dst}] += x.Elems
			}
			if len(gotMap) != len(want) {
				t.Fatalf("got %d node pairs, want %d: got %v want %v", len(gotMap), len(want), gotMap, want)
			}
			for k, v := range want {
				if gotMap[k] != v {
					t.Errorf("pair %v: got %d elems, want %d", k, gotMap[k], v)
				}
			}
		})
	}
}

func TestIntersectDeterministic(t *testing.T) {
	spec1 := Spec{Dims: []Dim{{Kind: Block}, {Kind: Block}}}
	spec2 := Spec{Dims: []Dim{{Kind: BlockCyclic, Chunk: 2}, {Kind: Star}}}
	og, om := mkGrid(t, spec1, 16, []int{64, 64})
	ng, nm := mkGrid(t, spec2, 16, []int{64, 64})
	nodeOf := func(p int) int { return p / 2 }
	a := Intersect(og, om, ng, nm, nodeOf)
	b := Intersect(og, om, ng, nm, nodeOf)
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("entry %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
	for i := 1; i < len(a); i++ {
		if a[i].Src < a[i-1].Src || (a[i].Src == a[i-1].Src && a[i].Dst <= a[i-1].Dst) {
			t.Fatalf("output not sorted at %d: %+v after %+v", i, a[i], a[i-1])
		}
	}
}

func TestScheduleProperties(t *testing.T) {
	cases := [][]Xfer{
		nil,
		{{0, 1, 10}},
		// All-to-all on 4 nodes: degree 3 each way.
		func() []Xfer {
			var xs []Xfer
			for s := 0; s < 4; s++ {
				for d := 0; d < 4; d++ {
					if s != d {
						xs = append(xs, Xfer{s, d, int64(s*10 + d)})
					}
				}
			}
			return xs
		}(),
		// One hot sender fanning out to 5 receivers.
		{{0, 1, 1}, {0, 2, 2}, {0, 3, 3}, {0, 4, 4}, {0, 5, 5}},
		// Asymmetric mesh.
		{{0, 1, 7}, {1, 0, 7}, {0, 2, 3}, {2, 1, 4}, {3, 1, 9}, {2, 3, 2}, {1, 3, 8}},
	}
	for ci, xs := range cases {
		rounds := Schedule(xs)
		// Every transfer appears exactly once.
		seen := map[Xfer]int{}
		for _, r := range rounds {
			for _, x := range r {
				seen[x]++
			}
		}
		if len(seen) != len(xs) {
			t.Errorf("case %d: %d distinct transfers scheduled, want %d", ci, len(seen), len(xs))
		}
		for _, x := range xs {
			if seen[x] != 1 {
				t.Errorf("case %d: transfer %+v scheduled %d times", ci, x, seen[x])
			}
		}
		// Per round: each node sends at most once and receives at most
		// once.
		for ri, r := range rounds {
			snd, rcv := map[int]bool{}, map[int]bool{}
			for _, x := range r {
				if snd[x.Src] {
					t.Errorf("case %d round %d: node %d sends twice", ci, ri, x.Src)
				}
				if rcv[x.Dst] {
					t.Errorf("case %d round %d: node %d receives twice", ci, ri, x.Dst)
				}
				snd[x.Src], rcv[x.Dst] = true, true
			}
		}
		// Optimality: rounds == max degree.
		deg := map[int]int{}
		maxDeg := 0
		for _, x := range xs {
			for _, k := range [2]int{x.Src, ^x.Dst} {
				deg[k]++
				if deg[k] > maxDeg {
					maxDeg = deg[k]
				}
			}
		}
		if len(rounds) != maxDeg {
			t.Errorf("case %d: %d rounds, want max degree %d", ci, len(rounds), maxDeg)
		}
	}
}
