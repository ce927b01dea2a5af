package dist

import "testing"

func allKinds(n, p int) []DimMap {
	return []DimMap{
		NewDimMap(Dim{Kind: Star}, n, p),
		NewDimMap(Dim{Kind: Block}, n, p),
		NewDimMap(Dim{Kind: Cyclic}, n, p),
		NewDimMap(Dim{Kind: BlockCyclic, Chunk: 1}, n, p),
		NewDimMap(Dim{Kind: BlockCyclic, Chunk: 3}, n, p),
		NewDimMap(Dim{Kind: BlockCyclic, Chunk: 5}, n, p),
	}
}

func TestBlockSize(t *testing.T) {
	cases := []struct{ n, p, want int }{
		{10, 2, 5}, {10, 3, 4}, {1, 4, 1}, {7, 7, 1}, {7, 8, 1}, {1000, 3, 334},
	}
	for _, c := range cases {
		if got := BlockSize(c.n, c.p); got != c.want {
			t.Errorf("BlockSize(%d,%d) = %d, want %d", c.n, c.p, got, c.want)
		}
	}
}

func TestTable1BlockExample(t *testing.T) {
	// real*8 A(1000); distribute_reshape A(cyclic(5)); portions are 5
	// elements each (paper §3.2.1 example).
	m := NewDimMap(Dim{Kind: BlockCyclic, Chunk: 5}, 1000, 4)
	for i := 0; i < 1000; i++ {
		owner := m.Owner(i)
		want := (i / 5) % 4
		if owner != want {
			t.Fatalf("cyclic(5) owner(%d) = %d, want %d", i, owner, want)
		}
	}
}

// TestTable1Literal pins Owner, Offset and PortionLen to the rows of the
// paper's Table 1 as printed, one closed form per specifier, so the normal
// form is checked against the paper and not against itself. The extents and
// processor counts cover P not dividing N, P > N, k > N and k*P > N.
func TestTable1Literal(t *testing.T) {
	type row struct {
		dim           Dim
		owner, offset func(i, n, p int) int
	}
	cyclicK := func(k int) row {
		return row{Dim{Kind: BlockCyclic, Chunk: k},
			func(i, n, p int) int { return (i / k) % p },
			func(i, n, p int) int { return (i/(k*p))*k + i%k }}
	}
	rows := []row{
		{Dim{Kind: Star},
			func(i, n, p int) int { return 0 },
			func(i, n, p int) int { return i }},
		{Dim{Kind: Block},
			func(i, n, p int) int { return i / ((n + p - 1) / p) },
			func(i, n, p int) int { return i % ((n + p - 1) / p) }},
		{Dim{Kind: Cyclic},
			func(i, n, p int) int { return i % p },
			func(i, n, p int) int { return i / p }},
		cyclicK(1), cyclicK(3), cyclicK(5), cyclicK(16), cyclicK(2000),
	}
	for _, n := range []int{1, 7, 16, 1001} {
		for _, p := range []int{1, 3, 4, 8, 16, 32} {
			for _, r := range rows {
				m := NewDimMap(r.dim, n, p)
				portion := make([]int, p)
				for i := 0; i < n; i++ {
					wo, woff := r.owner(i, n, p), r.offset(i, n, p)
					if o, off := m.Owner(i), m.Offset(i); o != wo || off != woff {
						t.Fatalf("%v n=%d p=%d: element %d at (owner %d, offset %d), Table 1 says (%d, %d)",
							r.dim, n, p, i, o, off, wo, woff)
					}
					portion[wo]++
				}
				for q := 0; q < m.P; q++ {
					if got := m.PortionLen(q); got != portion[q] {
						t.Fatalf("%v n=%d p=%d: PortionLen(%d) = %d, Table 1 owners give %d",
							r.dim, n, p, q, got, portion[q])
					}
				}
			}
		}
	}
}

// TestHugeChunkClamped: a chunk beyond the extent owns what a chunk equal to
// it owns, and K*P stays representable however large the declared chunk is
// (cyclic(2^62) on four processors used to wrap k*P to zero and divide by it).
func TestHugeChunkClamped(t *testing.T) {
	huge := NewDimMap(Dim{Kind: BlockCyclic, Chunk: 1 << 62}, 16, 4)
	want := NewDimMap(Dim{Kind: BlockCyclic, Chunk: 16}, 16, 4)
	if huge.K != 16 {
		t.Fatalf("K = %d, want 16", huge.K)
	}
	for i := 0; i < 16; i++ {
		if huge.Owner(i) != want.Owner(i) || huge.Offset(i) != want.Offset(i) || huge.runEnd(i) != want.runEnd(i) {
			t.Fatalf("element %d: cyclic(2^62) and cyclic(16) disagree", i)
		}
	}
	for q := 0; q < 4; q++ {
		if huge.PortionLen(q) != want.PortionLen(q) || len(huge.OwnedRanges(q)) != len(want.OwnedRanges(q)) {
			t.Fatalf("processor %d: cyclic(2^62) and cyclic(16) disagree", q)
		}
	}
	if huge.MaxPortionLen() != 16 {
		t.Fatalf("MaxPortionLen = %d, want 16", huge.MaxPortionLen())
	}
}

// TestOwnerOffsetGlobalRoundTrip checks the Table 1 transforms are the exact
// inverse of Global for every kind.
func TestOwnerOffsetGlobalRoundTrip(t *testing.T) {
	for _, n := range []int{1, 2, 7, 16, 100, 1001} {
		for _, p := range []int{1, 2, 3, 4, 7, 16} {
			for _, m := range allKinds(n, p) {
				for i := 0; i < n; i++ {
					o, off := m.Owner(i), m.Offset(i)
					if o < 0 || (m.Distributed() && o >= m.P) {
						t.Fatalf("%v n=%d p=%d: owner(%d)=%d out of range", m.Dim, n, p, i, o)
					}
					if back := m.Global(o, off); back != i {
						t.Fatalf("%v n=%d p=%d: Global(Owner,Offset)(%d) = %d", m.Dim, n, p, i, back)
					}
					if off < 0 || off >= m.PortionLen(o) {
						t.Fatalf("%v n=%d p=%d: offset(%d)=%d outside portion len %d",
							m.Dim, n, p, i, off, m.PortionLen(o))
					}
				}
			}
		}
	}
}

// TestPortionLenSums checks that the portions partition the dimension.
func TestPortionLenSums(t *testing.T) {
	for _, n := range []int{1, 5, 64, 999} {
		for _, p := range []int{1, 2, 5, 13} {
			for _, m := range allKinds(n, p) {
				total := 0
				procs := m.P
				if m.Kind == Star {
					procs = 1
				}
				for q := 0; q < procs; q++ {
					pl := m.PortionLen(q)
					if pl < 0 {
						t.Fatalf("%v: negative portion", m.Dim)
					}
					if pl > m.MaxPortionLen() {
						t.Fatalf("%v n=%d p=%d proc=%d: portion %d > max %d",
							m.Dim, n, p, q, pl, m.MaxPortionLen())
					}
					total += pl
				}
				if total != n {
					t.Fatalf("%v n=%d p=%d: portions sum to %d", m.Dim, n, p, total)
				}
			}
		}
	}
}

// TestOwnedRangesMatchOwner checks OwnedRanges enumerates exactly the owned
// elements.
func TestOwnedRangesMatchOwner(t *testing.T) {
	for _, n := range []int{1, 17, 100} {
		for _, p := range []int{1, 3, 8} {
			for _, m := range allKinds(n, p) {
				procs := m.P
				if m.Kind == Star {
					procs = 1
				}
				seen := make([]bool, n)
				for q := 0; q < procs; q++ {
					count := 0
					for _, r := range m.OwnedRanges(q) {
						for i := r.Lo; i < r.Hi; i++ {
							if m.Owner(i) != q {
								t.Fatalf("%v: range of %d contains %d owned by %d",
									m.Dim, q, i, m.Owner(i))
							}
							if seen[i] {
								t.Fatalf("%v: element %d in two ranges", m.Dim, i)
							}
							seen[i] = true
							count++
						}
					}
					if count != m.PortionLen(q) {
						t.Fatalf("%v proc %d: ranges cover %d, portion is %d",
							m.Dim, q, count, m.PortionLen(q))
					}
				}
				for i, s := range seen {
					if !s {
						t.Fatalf("%v: element %d uncovered", m.Dim, i)
					}
				}
			}
		}
	}
}

func TestSpecEqual(t *testing.T) {
	a := Spec{Dims: []Dim{{Kind: Star}, {Kind: Block}}, Reshape: true}
	b := Spec{Dims: []Dim{{Kind: Star}, {Kind: Block}}, Reshape: true}
	if !a.Equal(b) {
		t.Error("identical specs not equal")
	}
	c := Spec{Dims: []Dim{{Kind: Star}, {Kind: Block}}}
	if a.Equal(c) {
		t.Error("reshape flag ignored")
	}
	d := Spec{Dims: []Dim{{Kind: Star}, {Kind: BlockCyclic, Chunk: 2}}, Reshape: true}
	e := Spec{Dims: []Dim{{Kind: Star}, {Kind: BlockCyclic, Chunk: 3}}, Reshape: true}
	if d.Equal(e) {
		t.Error("cyclic chunk ignored")
	}
}

func TestSpecValidate(t *testing.T) {
	if err := (Spec{}).Validate(); err == nil {
		t.Error("empty spec accepted")
	}
	bad := Spec{Dims: []Dim{{Kind: BlockCyclic, Chunk: 0}}}
	if err := bad.Validate(); err == nil {
		t.Error("cyclic(0) accepted")
	}
	ok := Spec{Dims: []Dim{{Kind: Block}, {Kind: Star}}}
	if err := ok.Validate(); err != nil {
		t.Errorf("valid spec rejected: %v", err)
	}
}

func TestSpecString(t *testing.T) {
	s := Spec{Dims: []Dim{{Kind: Star}, {Kind: Block}, {Kind: BlockCyclic, Chunk: 4}}, Reshape: true}
	want := "distribute_reshape(*,block,cyclic(4))"
	if got := s.String(); got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}
