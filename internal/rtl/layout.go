package rtl

import (
	"fmt"
	"math"
	"math/bits"

	"dsmdist/internal/bytecode"
	"dsmdist/internal/codegen"
	"dsmdist/internal/dist"
	"dsmdist/internal/machine"
	"dsmdist/internal/memsim"
)

// maxImageBytes bounds the simulated memory one image may ask for: a
// hundred times what the full-scale sweeps use (40 MB). The image is
// untrusted input (.img files, sources posted to dsmd), and a footprint the
// host cannot back ends the process with a runtime throw no recover() sees;
// with the footprint planned before the first allocation it ends one load
// with an error instead.
const maxImageBytes = 4 << 30

// block is one heap allocation of the plan: Alloc(n, align) must return base.
type block struct{ base, n, align int64 }

// poolChunk is one growth of a processor's reshaped pool (§4.3): the page-
// multiple block to place on that processor's node.
type poolChunk struct {
	proc        int
	base, bytes int64
}

// pool is a processor's current chunk; portions are bump-allocated from it.
type pool struct{ cur, end int64 }

// layout is the plan of a load: every address LoadObs is about to hand out
// and the heap top they add up to, computed before anything is allocated.
type layout struct {
	blocks []block // every heap allocation, in order
	brk    int64   // heap top once they are all made

	syms   []int64       // address per Prog.Syms entry
	stacks []int64       // stack base per processor
	arrays []*ArrayState // per res.Arrays entry, addresses filled in
	chunks [][]poolChunk // per array: the chunks its portions opened, by processor
}

// planLoad lays the image out on a heap whose top is brk. It is arithmetic
// only — memsim.Bump is the heap's own allocation rule — and it is where the
// image's sizes are checked. LoadObs puts "rtl:" in front of its errors.
func planLoad(res *codegen.Result, cfg *machine.Config, brk int64) (*layout, error) {
	l := &layout{brk: brk}
	for _, s := range res.Prog.Syms {
		if s.Bytes < 0 || s.Align < 0 || s.Align&(s.Align-1) != 0 {
			return nil, fmt.Errorf("symbol %s: bad size %d or alignment %d", s.Name, s.Bytes, s.Align)
		}
		addr, err := l.alloc(symBytes(s), s.Align)
		if err != nil {
			return nil, err
		}
		l.syms = append(l.syms, addr)
	}
	for p := 0; p < cfg.NProcs; p++ {
		base, err := l.alloc(StackBytes, int64(cfg.PageBytes))
		if err != nil {
			return nil, err
		}
		l.stacks = append(l.stacks, base)
	}
	pools := make([]pool, cfg.NProcs)
	for _, plan := range res.Arrays {
		st, chunks, err := l.planArray(res.Prog, plan, cfg, pools)
		if err != nil {
			return nil, fmt.Errorf("%s.%s: %w", plan.Unit, plan.Name, err)
		}
		l.arrays = append(l.arrays, st)
		l.chunks = append(l.chunks, chunks)
	}
	return l, nil
}

// symBytes is the heap size of a data symbol; an empty one (a common block
// with no members) still gets a word, so that it has an address.
func symBytes(s *bytecode.DataSym) int64 {
	if s.Bytes == 0 {
		return 8
	}
	return s.Bytes
}

func errTooBig(need uint64) error {
	return fmt.Errorf("image needs %d bytes of simulated memory (limit %d)", need, uint64(maxImageBytes))
}

// alloc plans one allocation of n >= 0 bytes; align is a power of two.
func (l *layout) alloc(n, align int64) (int64, error) {
	if n > maxImageBytes {
		return 0, errTooBig(uint64(l.brk) + uint64(n))
	}
	// brk and n are both within the limit, so no sum in Bump can wrap.
	base, next := memsim.Bump(l.brk, n, align)
	if next > maxImageBytes {
		return 0, errTooBig(uint64(next))
	}
	l.blocks = append(l.blocks, block{base, n, align})
	l.brk = next
	return base, nil
}

// planArray instantiates one array for the processor count: the grid, the
// dimension maps and, for a reshaped array, one portion per grid processor
// cut from that processor's pool.
func (l *layout) planArray(prog *bytecode.Program, plan *codegen.ArrayPlan, cfg *machine.Config, pools []pool) (*ArrayState, []poolChunk, error) {
	st := &ArrayState{Plan: plan}
	size := uint64(8)
	for _, d := range plan.Dims {
		if d < 0 {
			return nil, nil, fmt.Errorf("negative extent in %v", plan.Dims)
		}
		var hi uint64
		if hi, size = bits.Mul64(size, uint64(d)); hi != 0 {
			size = math.MaxUint64
		}
		if size > maxImageBytes {
			return nil, nil, errTooBig(size)
		}
	}
	if plan.DataSym >= len(l.syms) || plan.DescSym >= len(l.syms) {
		return nil, nil, fmt.Errorf("symbol index out of range")
	}
	if plan.DataSym >= 0 {
		room := symBytes(prog.Syms[plan.DataSym]) - int64(size)
		if plan.DataOffset < 0 || plan.DataOffset > room {
			return nil, nil, fmt.Errorf("array does not fit its data symbol")
		}
		st.Base = l.syms[plan.DataSym] + plan.DataOffset
	}
	if plan.Spec == nil {
		return st, nil, nil
	}
	if plan.DescSym < 0 {
		return nil, nil, fmt.Errorf("distributed array has no descriptor")
	}

	grid, err := dist.NewGrid(*plan.Spec, cfg.NProcs)
	if err != nil {
		return nil, nil, err
	}
	st.Grid = grid
	intDims := make([]int, len(plan.Dims))
	for i, d := range plan.Dims {
		intDims[i] = int(d)
	}
	if st.Maps, err = grid.Maps(intDims); err != nil {
		return nil, nil, err
	}
	st.DescAddr = l.syms[plan.DescSym]
	if !plan.Spec.Reshape {
		return st, nil, nil
	}

	// The processor-array representation of §4.3 (Figure 3): a uniform
	// portion size, each portion from its processor's local pool, so
	// portions need no padding to page boundaries.
	per := int64(8)
	for _, m := range st.Maps {
		per *= int64(m.MaxPortionLen())
	}
	st.PortionBytes = per
	st.Portions = make([]int64, grid.Used)
	var chunks []poolChunk
	pb := int64(cfg.PageBytes)
	for p := range st.Portions {
		pl := &pools[p]
		if pl.cur+per > pl.end {
			// Grow the pool by a page-multiple chunk.
			c := poolChunk{proc: p, bytes: max((per+pb-1)/pb*pb, 16*pb)}
			if c.base, err = l.alloc(c.bytes, pb); err != nil {
				return nil, nil, err
			}
			chunks = append(chunks, c)
			pl.cur, pl.end = c.base, c.base+c.bytes
		}
		st.Portions[p] = pl.cur
		pl.cur += per
	}
	return st, chunks, nil
}
