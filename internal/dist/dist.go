// Package dist implements the data-distribution mathematics of the PLDI'97
// paper "Data Distribution Support on Distributed Shared Memory
// Multiprocessors": the block / cyclic / cyclic(k) / * distribution
// specifiers (paper §3.2), the owner and local-offset transforms of Table 1,
// the onto-clause processor grid assignment, the portion-traversal
// intrinsics of the runtime library, and the ownership intersection and
// round schedule behind c$redistribute. The affinity-scheduling loop bounds
// of Figure 2 are not here: internal/xform emits them as IR (tile.go,
// sched.go).
//
// All indices in this package are zero-based element indices within a single
// array dimension. The Fortran front end converts its one-based subscripts
// before calling in.
package dist

import (
	"fmt"
	"strings"
)

// Kind identifies one of the four distribution specifiers a dimension may
// carry (paper §3.2: "<dist> may be one of block, cyclic, cyclic(<expr>),
// or *").
type Kind int

const (
	// Star means the dimension is not distributed ("*").
	Star Kind = iota
	// Block divides the dimension into P contiguous chunks of size
	// ceil(N/P).
	Block
	// Cyclic deals elements round-robin: element i lives on processor
	// i mod P.
	Cyclic
	// BlockCyclic (cyclic(k)) deals chunks of k elements round-robin.
	BlockCyclic
)

func (k Kind) String() string {
	switch k {
	case Star:
		return "*"
	case Block:
		return "block"
	case Cyclic:
		return "cyclic"
	case BlockCyclic:
		return "cyclic(k)"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Dim describes the distribution of a single array dimension.
type Dim struct {
	Kind  Kind
	Chunk int // chunk size k for BlockCyclic; ignored otherwise
	// Onto is the relative weight from the onto clause (0 means
	// unspecified). Only meaningful on distributed (non-Star) dims.
	Onto int
}

func (d Dim) String() string {
	switch d.Kind {
	case BlockCyclic:
		return fmt.Sprintf("cyclic(%d)", d.Chunk)
	default:
		return d.Kind.String()
	}
}

// Distributed reports whether the dimension is spread across processors.
func (d Dim) Distributed() bool { return d.Kind != Star }

// Validate checks internal consistency of the specifier.
func (d Dim) Validate() error {
	switch d.Kind {
	case Star, Block, Cyclic:
		return nil
	case BlockCyclic:
		if d.Chunk <= 0 {
			return fmt.Errorf("dist: cyclic chunk must be positive, got %d", d.Chunk)
		}
		return nil
	}
	return fmt.Errorf("dist: unknown kind %d", int(d.Kind))
}

// Spec is the full distribution of an array: one Dim per array dimension.
type Spec struct {
	Dims []Dim
	// Reshape distinguishes c$distribute_reshape from c$distribute.
	Reshape bool
}

func (s Spec) String() string {
	parts := make([]string, len(s.Dims))
	for i, d := range s.Dims {
		parts[i] = d.String()
	}
	name := "distribute"
	if s.Reshape {
		name = "distribute_reshape"
	}
	return fmt.Sprintf("%s(%s)", name, strings.Join(parts, ","))
}

// Distributed reports whether any dimension is distributed.
func (s Spec) Distributed() bool {
	for _, d := range s.Dims {
		if d.Distributed() {
			return true
		}
	}
	return false
}

// DistributedDims returns the indices of the distributed dimensions.
func (s Spec) DistributedDims() []int {
	var out []int
	for i, d := range s.Dims {
		if d.Distributed() {
			out = append(out, i)
		}
	}
	return out
}

// Equal reports whether two specs are identical (same kinds, chunks and
// reshape flag). The pre-linker uses this when matching clone requests and
// when verifying common-block consistency (paper §5, §6).
func (s Spec) Equal(o Spec) bool {
	if s.Reshape != o.Reshape || len(s.Dims) != len(o.Dims) {
		return false
	}
	for i := range s.Dims {
		if s.Dims[i].Kind != o.Dims[i].Kind {
			return false
		}
		if s.Dims[i].Kind == BlockCyclic && s.Dims[i].Chunk != o.Dims[i].Chunk {
			return false
		}
	}
	return true
}

// Validate checks every dimension.
func (s Spec) Validate() error {
	if len(s.Dims) == 0 {
		return fmt.Errorf("dist: spec has no dimensions")
	}
	for i, d := range s.Dims {
		if err := d.Validate(); err != nil {
			return fmt.Errorf("dim %d: %w", i+1, err)
		}
	}
	return nil
}

// BlockSize returns the per-processor portion length b = ceil(n/p) used by
// the Block transforms of Table 1.
func BlockSize(n, p int) int {
	if p <= 0 {
		p = 1
	}
	return (n + p - 1) / p
}

// DimMap is a Dim instantiated for a concrete dimension extent and processor
// count; it answers the Table 1 questions: which processor owns element i,
// and at which offset within that processor's portion.
type DimMap struct {
	Dim
	N int // dimension extent
	P int // processors assigned to this dimension (1 for Star)
	B int // block size for Block kind (ceil(N/P)); 0 otherwise
}

// NewDimMap binds a dimension specifier to an extent and processor count.
func NewDimMap(d Dim, n, p int) DimMap {
	if !d.Distributed() || p < 1 {
		p = 1
	}
	m := DimMap{Dim: d, N: n, P: p}
	if d.Kind == Block {
		m.B = BlockSize(n, p)
	}
	return m
}

// Owner returns the processor (within this dimension's processor axis) that
// owns zero-based element i. This is the first row of Table 1:
//
//	block:      i / b
//	cyclic:     i mod P
//	cyclic(k):  (i/k) mod P
func (m DimMap) Owner(i int) int {
	switch m.Kind {
	case Star:
		return 0
	case Block:
		return i / m.B
	case Cyclic:
		return i % m.P
	case BlockCyclic:
		return (i / m.Chunk) % m.P
	}
	return 0
}

// Offset returns the zero-based offset of element i within its owner's
// portion. This is the second row of Table 1:
//
//	block:      i mod b
//	cyclic:     i / P
//	cyclic(k):  (i/(k*P))*k + i mod k
func (m DimMap) Offset(i int) int {
	switch m.Kind {
	case Star:
		return i
	case Block:
		return i % m.B
	case Cyclic:
		return i / m.P
	case BlockCyclic:
		return (i/(m.Chunk*m.P))*m.Chunk + i%m.Chunk
	}
	return i
}

// PortionLen returns the number of elements of the dimension owned by
// processor p. The reshaped-array allocator sizes per-processor pools with
// this (paper §4.3: portions are allocated independently, no padding to page
// boundaries).
func (m DimMap) PortionLen(p int) int {
	switch m.Kind {
	case Star:
		return m.N
	case Block:
		lo := p * m.B
		if lo >= m.N {
			return 0
		}
		hi := lo + m.B
		if hi > m.N {
			hi = m.N
		}
		return hi - lo
	case Cyclic:
		if p >= m.N {
			return 0
		}
		return (m.N - p + m.P - 1) / m.P
	case BlockCyclic:
		k := m.Chunk
		full := m.N / (k * m.P) // complete rounds of P chunks
		n := full * k
		rem := m.N - full*k*m.P // elements in the final partial round
		lo := p * k
		if rem > lo {
			extra := rem - lo
			if extra > k {
				extra = k
			}
			n += extra
		}
		return n
	}
	return 0
}

// MaxPortionLen returns the largest portion length over all processors; the
// processor-array representation of a reshaped dimension uses this as its
// per-processor stride when a uniform stride is required.
func (m DimMap) MaxPortionLen() int {
	switch m.Kind {
	case Star:
		return m.N
	case Block:
		return m.B
	default:
		return m.PortionLen(0)
	}
}

// Global is the inverse of (Owner, Offset): it maps processor p and local
// offset j back to the global element index. The runtime portion intrinsics
// (paper §3.2.1 "a rich set of intrinsics for traversing the individual
// portions") are built on it.
func (m DimMap) Global(p, j int) int {
	switch m.Kind {
	case Star:
		return j
	case Block:
		return p*m.B + j
	case Cyclic:
		return j*m.P + p
	case BlockCyclic:
		k := m.Chunk
		return (j/k)*(k*m.P) + p*k + j%k
	}
	return j
}

// Range is a contiguous run of global indices owned by one processor.
type Range struct{ Lo, Hi int } // inclusive Lo, exclusive Hi

// OwnedRanges returns the maximal contiguous global-index runs owned by
// processor p, in increasing order. Block yields at most one range, cyclic
// yields singletons, cyclic(k) yields chunk stripes.
func (m DimMap) OwnedRanges(p int) []Range {
	var out []Range
	switch m.Kind {
	case Star:
		if m.N > 0 {
			out = append(out, Range{0, m.N})
		}
	case Block:
		lo := p * m.B
		hi := lo + m.B
		if hi > m.N {
			hi = m.N
		}
		if lo < hi {
			out = append(out, Range{lo, hi})
		}
	case Cyclic:
		for i := p; i < m.N; i += m.P {
			out = append(out, Range{i, i + 1})
		}
	case BlockCyclic:
		k := m.Chunk
		for lo := p * k; lo < m.N; lo += k * m.P {
			hi := lo + k
			if hi > m.N {
				hi = m.N
			}
			out = append(out, Range{lo, hi})
		}
	}
	return out
}
