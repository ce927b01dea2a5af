package dist

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// Randomized property tests (testing/quick) for the Table 1 mathematics
// and the onto-clause grid, complementing the exhaustive small-case tests in
// dist_test.go.

func randMap(rng *rand.Rand) DimMap {
	kinds := []Dim{
		{Kind: Star},
		{Kind: Block},
		{Kind: Cyclic},
		{Kind: BlockCyclic, Chunk: 1 + rng.Intn(7)},
	}
	d := kinds[rng.Intn(len(kinds))]
	n := 1 + rng.Intn(500)
	p := 1 + rng.Intn(17)
	return NewDimMap(d, n, p)
}

// Property: Global is the exact inverse of (Owner, Offset) and owners are
// in range, for arbitrary kinds, extents, processor counts, and elements.
func TestQuickOwnerOffsetInverse(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := randMap(rng)
		for trial := 0; trial < 50; trial++ {
			i := rng.Intn(m.N)
			o, off := m.Owner(i), m.Offset(i)
			if m.Distributed() && (o < 0 || o >= m.P) {
				return false
			}
			if off < 0 || off >= m.MaxPortionLen() {
				return false
			}
			if m.Global(o, off) != i {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: portions partition the dimension exactly.
func TestQuickPortionPartition(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := randMap(rng)
		procs := m.P
		if m.Kind == Star {
			procs = 1
		}
		total := 0
		for p := 0; p < procs; p++ {
			total += m.PortionLen(p)
		}
		return total == m.N
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: grids use every processor when the count factors onto the
// dimensions, and Coord/Linear invert each other.
func TestQuickGridRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nd := 1 + rng.Intn(3)
		spec := Spec{Dims: make([]Dim, nd)}
		for i := range spec.Dims {
			spec.Dims[i].Kind = Block
			if rng.Intn(3) == 0 {
				spec.Dims[i].Onto = 1 + rng.Intn(4)
			}
		}
		np := 1 + rng.Intn(64)
		g, err := NewGrid(spec, np)
		if err != nil {
			return false
		}
		if g.Used < 1 || g.Used > np {
			return false
		}
		prod := 1
		for _, p := range g.DimProcs {
			prod *= p
		}
		if prod != g.Used {
			return false
		}
		for id := 0; id < g.Used; id++ {
			if g.Linear(g.Coord(id)) != id {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
