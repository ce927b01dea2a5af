// Package codegen translates optimized IR units into bytecode. It assigns
// storage classes (registers for scalars, frame memory for addressed
// scalars, static symbols for local arrays and common blocks, descriptors
// for distributed arrays), outlines doacross Regions into region functions,
// emits the §6 runtime argument checks, and applies the §7.3
// floating-point-simulated integer divide when enabled.
//
// Layout and linking policy (which clone a call resolves to, where symbols
// land) is supplied by the caller through Env; the linker drives codegen
// once per unit instance after the pre-linker has resolved distributions.
package codegen

import (
	"fmt"
	"math"
	"math/bits"

	"dsmdist/internal/bytecode"
	"dsmdist/internal/dist"
	"dsmdist/internal/ir"
)

// Options control code generation.
type Options struct {
	// FPDiv emits FpDivI/FpModI for integer division (§7.3).
	FPDiv bool
	// RuntimeChecks emits the §6 argument push/check calls.
	RuntimeChecks bool
}

// ArgCheckKind distinguishes the two runtime-check record types.
type ArgCheckKind int

const (
	// CheckWhole: a whole reshaped array is passed; shape, size and
	// distribution must match the formal exactly (§3.2.1).
	CheckWhole ArgCheckKind = iota
	// CheckPortion: an element of a reshaped array is passed; the
	// callee's formal must fit within one portion.
	CheckPortion
	// CheckFormal: callee-side record describing a declared array
	// formal.
	CheckFormal
)

// CheckInfo is one entry of the runtime-check table (§6): the caller pushes
// actual-argument facts keyed by address; the callee validates its formals.
type CheckInfo struct {
	Kind ArgCheckKind
	// Whole/Formal: dims and distribution. Portion: Bytes is the
	// portion size in bytes.
	Dims  []int64
	Spec  *dist.Spec
	Bytes int64
	// Diagnostics.
	Array string
	Unit  string
	Line  int
}

// ArrayPlan tells the loader how to materialize one distributed or static
// array.
type ArrayPlan struct {
	Unit string
	Name string
	Type ir.Type
	Dims []int64 // constant extents

	DataSym int // Prog.Syms index of the data block (-1 for reshaped)
	DescSym int // Prog.Syms index of the descriptor (-1 if undistributed)
	// Offset of the array within its data symbol (common blocks).
	DataOffset int64

	Spec          *dist.Spec // nil when undistributed
	Redistributed bool
}

// RedistPlan describes one c$redistribute site.
type RedistPlan struct {
	Array int // ArrayPlan index
	Spec  dist.Spec
}

// Result is the output of compiling a whole program.
type Result struct {
	Prog    *bytecode.Program
	Arrays  []*ArrayPlan
	Redists []RedistPlan
	Checks  []CheckInfo
}

// Clone deep-copies the run-mutable parts of the result, so a cached
// compile can be loaded and run many times (concurrently) without the runs
// seeing each other: the loader patches Prog in place, and redistribute
// replaces an ArrayPlan's Spec pointer at run time. RedistPlans, plan Dims,
// and the Spec values themselves are never mutated in place and stay
// shared.
func (r *Result) Clone() *Result {
	nr := &Result{Prog: r.Prog.Clone(), Redists: r.Redists}
	nr.Arrays = make([]*ArrayPlan, len(r.Arrays))
	for i, a := range r.Arrays {
		na := *a
		nr.Arrays[i] = &na
	}
	nr.Checks = append([]CheckInfo(nil), r.Checks...)
	return nr
}

// Env supplies link-level policy to codegen.
type Env struct {
	// Resolve maps a callee name and its reshaped-argument signature to
	// the function index that call must target (the clone mechanism of
	// §5). It returns an error for unresolvable calls.
	Resolve func(name string, sig []*dist.Spec) (int, error)
}

// Program compiles a set of unit instances into one executable image. The
// units must already be transformed (xform) and must include exactly one
// main program.
func Program(units []*ir.Unit, env Env, opts Options) (*Result, error) {
	g := &gen{
		env:  env,
		opts: opts,
		res: &Result{
			Prog: &bytecode.Program{Main: -1},
		},
		commons:   map[string]*commonLayout{},
		arrayPlan: map[*ir.Sym]int{},
		slotPlan:  map[commonSlot]int{},
	}
	// Symbol index 0 is reserved so "Addr == 0" can mean unassigned.
	g.res.Prog.Syms = append(g.res.Prog.Syms, &bytecode.DataSym{Name: "(reserved)", Bytes: 8, Align: 8})

	// Pass 1: lay out commons and static arrays, create descriptors, and
	// reserve one Fn slot per unit so that unit i compiles to function
	// index i — the linker's Resolve relies on this (region functions
	// are appended afterwards).
	for i, u := range units {
		if err := g.layoutUnit(u); err != nil {
			return nil, err
		}
		g.res.Prog.Fns = append(g.res.Prog.Fns, &bytecode.Fn{Name: u.Name, NArgs: len(u.Params),
			File: u.SourceFile, Line: u.Line})
		if u.IsProgram {
			if g.res.Prog.Main >= 0 {
				return nil, fmt.Errorf("codegen: multiple program units")
			}
			g.res.Prog.Main = i
		}
	}
	if g.res.Prog.Main < 0 {
		return nil, fmt.Errorf("codegen: no main program unit")
	}
	// Pass 2: compile bodies.
	for i, u := range units {
		if err := g.compileUnit(u, i); err != nil {
			return nil, err
		}
	}
	return g.res, nil
}

type commonLayout struct {
	sym     int   // DataSym index
	size    int64 // bytes laid out so far
	offsets map[string]int64
}

type commonSlot struct {
	block string
	off   int64
}

type gen struct {
	env  Env
	opts Options
	res  *Result

	commons   map[string]*commonLayout
	arrayPlan map[*ir.Sym]int    // sym -> ArrayPlan index (per unit instance)
	slotPlan  map[commonSlot]int // shared plans for common-block members
	unit      *ir.Unit
}

// arrayBytes is the storage of an array with constant extents, eight bytes
// an element; ok is false when an extent is negative or the product does not
// fit an int64. layoutUnit checks every array of a unit once, so the sizes
// recorded afterwards (data symbols, ArrayPlan, CheckInfo) cannot have
// wrapped.
func arrayBytes(dims []int64) (n int64, ok bool) {
	size := uint64(8)
	for _, d := range dims {
		var hi uint64
		if hi, size = bits.Mul64(size, uint64(d)); d < 0 || hi != 0 || size > math.MaxInt64 {
			return 0, false
		}
	}
	return int64(size), true
}

// newDataSym appends a data symbol.
func (g *gen) newDataSym(name string, kind bytecode.SymKind, bytes, align int64) int {
	g.res.Prog.Syms = append(g.res.Prog.Syms, &bytecode.DataSym{
		Name: name, Kind: kind, Bytes: bytes, Align: align,
	})
	return len(g.res.Prog.Syms) - 1
}

// DescTableOff returns the byte offset of the portion table within a
// descriptor for an array of nd dimensions.
func DescTableOff(nd int) int64 { return int64(nd * ir.DescFields * 8) }

// DescBytes is the descriptor size for nd dimensions (fields + a portion
// table sized for the largest machine).
func DescBytes(nd int) int64 { return DescTableOff(nd) + 128*8 }

// layoutUnit creates data symbols, descriptors and array plans for one
// unit.
func (g *gen) layoutUnit(u *ir.Unit) error {
	for _, s := range u.Syms {
		if dims, constDims := s.ConstDims(); s.Kind == ir.Array && constDims {
			if _, ok := arrayBytes(dims); !ok {
				return fmt.Errorf("%s: array %s: extents %v are negative or overflow the array's size", u.Name, s.Name, dims)
			}
		}
	}

	// Common blocks: the block's size is the max over declarations;
	// member offsets accumulate in declaration order.
	for _, cb := range u.CommonBlocks {
		cl, ok := g.commons[cb.Name]
		if !ok {
			cl = &commonLayout{offsets: map[string]int64{}}
			cl.sym = g.newDataSym("/"+cb.Name+"/", bytecode.SymData, 0, 4096)
			g.commons[cb.Name] = cl
		}
		off := int64(0)
		for _, m := range cb.Members {
			dims, err := requireConstDims(u, m)
			if err != nil {
				return err
			}
			cl.offsets[u.Name+"."+m.Name] = off
			bytes, _ := arrayBytes(dims)
			if off > math.MaxInt64-bytes {
				return fmt.Errorf("%s: common /%s/ is too large (its size overflows at %s)", u.Name, cb.Name, m.Name)
			}
			off += bytes
		}
		if off > cl.size {
			cl.size = off
			g.res.Prog.Syms[cl.sym].Bytes = off
		}
	}

	for _, s := range u.Syms {
		if s.Kind != ir.Array || s.IsParam {
			if s.Kind == ir.Array && s.IsParam && s.Dist != nil && !s.Dist.Reshape {
				return fmt.Errorf("%s: regular distribution on dummy argument %s is not supported (only reshaped distributions propagate, §5)",
					u.Name, s.Name)
			}
			// Reshaped formals need no plan: the caller's
			// descriptor arrives as the argument.
			continue
		}
		if _, constDims := s.ConstDims(); !constDims && s.Common == "" {
			// Dynamically sized local array: stack-allocated at unit
			// entry (no static plan). Distribution on such arrays is
			// not supported in this reproduction.
			if s.Dist != nil {
				return fmt.Errorf("%s: distributed dynamically sized local array %s is not supported",
					u.Name, s.Name)
			}
			continue
		}
		dims, err := requireConstDims(u, s)
		if err != nil {
			return err
		}

		if s.Common != "" {
			// Members of a common block are one storage object no
			// matter how many units declare the block: the plan,
			// descriptor and (for reshaped arrays) portion pools
			// are shared. The pre-linker has already verified
			// consistent declarations (§6).
			cl := g.commons[s.Common]
			off := cl.offsets[u.Name+"."+s.Name]
			key := commonSlot{s.Common, off}
			if pi, ok := g.slotPlan[key]; ok {
				plan := g.res.Arrays[pi]
				if s.Dist != nil {
					if plan.Spec == nil {
						// A later declaration supplies the
						// distribution (regular case; the
						// reshaped case is link-checked).
						plan.Spec = s.Dist
						plan.DescSym = g.newDataSym("desc:/"+s.Common+"/"+s.Name,
							bytecode.SymDesc, DescBytes(len(dims)), 64)
					} else if !plan.Spec.Equal(*s.Dist) {
						return fmt.Errorf("%s: common /%s/ member %s distribution %s conflicts with %s",
							u.Name, s.Common, s.Name, s.Dist, plan.Spec)
					}
				}
				g.arrayPlan[s] = pi
				continue
			}
			plan := &ArrayPlan{
				Unit: u.Name, Name: s.Name, Type: s.Type, Dims: dims,
				DataSym: cl.sym, DataOffset: off, DescSym: -1,
				Spec: s.Dist, Redistributed: s.Redistributed,
			}
			if s.Dist != nil {
				plan.DescSym = g.newDataSym("desc:/"+s.Common+"/"+s.Name, bytecode.SymDesc,
					DescBytes(len(dims)), 64)
			}
			g.res.Arrays = append(g.res.Arrays, plan)
			g.slotPlan[key] = len(g.res.Arrays) - 1
			g.arrayPlan[s] = len(g.res.Arrays) - 1
			continue
		}

		plan := &ArrayPlan{
			Unit: u.Name, Name: s.Name, Type: s.Type, Dims: dims,
			DataSym: -1, DescSym: -1,
			Spec:          s.Dist,
			Redistributed: s.Redistributed,
		}
		if s.Dist == nil || !s.Dist.Reshape {
			bytes, _ := arrayBytes(dims)
			plan.DataSym = g.newDataSym(u.Name+"."+s.Name, bytecode.SymData, bytes, 4096)
		}
		if s.Dist != nil {
			plan.DescSym = g.newDataSym("desc:"+u.Name+"."+s.Name, bytecode.SymDesc,
				DescBytes(len(dims)), 64)
		}
		g.res.Arrays = append(g.res.Arrays, plan)
		g.arrayPlan[s] = len(g.res.Arrays) - 1
	}
	return nil
}

func requireConstDims(u *ir.Unit, s *ir.Sym) ([]int64, error) {
	dims, ok := s.ConstDims()
	if !ok {
		return nil, fmt.Errorf("%s: array %s needs constant extents (dynamically sized local arrays are not supported)",
			u.Name, s.Name)
	}
	return dims, nil
}

// sharedCommons returns the layout for cross-unit symbol resolution in
// tests.
func (g *gen) commonOffset(u *ir.Unit, s *ir.Sym) (int, int64) {
	cl := g.commons[s.Common]
	return cl.sym, cl.offsets[u.Name+"."+s.Name]
}
