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
//
// Every specifier is held in one normal form, chunks of K elements dealt
// round-robin over P processors, and the methods below are the cyclic(k) row
// of Table 1 evaluated at K:
//
//	spec       K                    owner        offset
//	"*"        max(N,1), P = 1      0            i
//	block      ceil(N/P)            i/K          i mod K
//	cyclic     1                    i mod P      i/P
//	cyclic(k)  min(k, max(N,1))     (i/K) mod P  (i/(K*P))*K + i mod K
//
// The block row is the cyclic(k) row confined to its first round (i < K*P),
// the cyclic row is the cyclic(k) row with i mod 1 = 0, and "*" is one chunk
// on one processor. A chunk larger than the extent owns what a chunk equal
// to it owns, and clamping it keeps K*P representable. Kind stays for
// consumers whose output depends on the specifier's shape rather than its
// arithmetic: the closed forms internal/xform emits, and the descriptor
// words and §6 clipping rule of internal/rtl.
type DimMap struct {
	Dim
	N int // dimension extent
	P int // processors assigned to this dimension (1 for Star)
	K int // normal-form chunk: elements dealt to one processor at a time (>= 1)
}

// NewDimMap binds a dimension specifier to an extent and processor count.
func NewDimMap(d Dim, n, p int) DimMap {
	if !d.Distributed() || p < 1 {
		p = 1
	}
	k := 1 // Cyclic
	switch d.Kind {
	case Star:
		k = n
	case Block:
		k = BlockSize(n, p)
	case BlockCyclic:
		k = min(d.Chunk, n)
	}
	return DimMap{Dim: d, N: n, P: p, K: max(k, 1)}
}

// Owner returns the processor (within this dimension's processor axis) that
// owns zero-based element i: the first row of Table 1.
func (m DimMap) Owner(i int) int { return (i / m.K) % m.P }

// Offset returns the zero-based offset of element i within its owner's
// portion: the second row of Table 1.
func (m DimMap) Offset(i int) int { return (i/(m.K*m.P))*m.K + i%m.K }

// Global is the inverse of (Owner, Offset): it maps processor p and local
// offset j back to the global element index. The runtime portion intrinsics
// (paper §3.2.1 "a rich set of intrinsics for traversing the individual
// portions") are built on it.
func (m DimMap) Global(p, j int) int { return (j/m.K)*(m.K*m.P) + p*m.K + j%m.K }

// PortionLen returns the number of elements of the dimension owned by
// processor p: K for every complete round of P chunks, plus p's share of the
// final partial round. The reshaped-array allocator sizes per-processor pools
// with this (paper §4.3: portions are allocated independently, no padding to
// page boundaries).
func (m DimMap) PortionLen(p int) int {
	round := m.K * m.P
	rem := m.N % round
	return m.N/round*m.K + min(max(rem-p*m.K, 0), m.K)
}

// MaxPortionLen returns the largest portion length over all processors; the
// processor-array representation of a reshaped dimension uses this as its
// per-processor stride when a uniform stride is required. Processor 0 is
// dealt first, so no portion is longer than its own.
func (m DimMap) MaxPortionLen() int { return m.PortionLen(0) }

// Range is a contiguous run of global indices owned by one processor.
type Range struct{ Lo, Hi int } // inclusive Lo, exclusive Hi

// OwnedRanges returns the maximal contiguous global-index runs owned by
// processor p, in increasing order: one chunk per round. Block yields at most
// one range, cyclic yields singletons, cyclic(k) yields chunk stripes.
func (m DimMap) OwnedRanges(p int) []Range {
	var out []Range
	for lo := p * m.K; lo < m.N; lo += m.K * m.P {
		out = append(out, Range{lo, min(lo+m.K, m.N)})
	}
	return out
}
