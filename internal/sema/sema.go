// Package sema performs semantic analysis: it binds names, applies
// Fortran's implicit typing rule, evaluates parameter constants, checks
// types, validates the paper's directives (§3), enforces the compile-time
// reshape restrictions of §6 (no equivalence with reshaped arrays,
// redistribute only on regular distributions), and lowers the AST to
// internal/ir.
//
// The pre-linker re-invokes sema when cloning a subroutine for a particular
// combination of incoming reshaped distributions (§5); the bindings arrive
// through Options.ParamDists.
package sema

import (
	"fmt"
	"sort"
	"strings"

	"dsmdist/internal/dist"
	"dsmdist/internal/fortran"
	"dsmdist/internal/ir"
)

// Error is one semantic diagnostic.
type Error struct {
	File string
	Line int
	Msg  string
}

func (e *Error) Error() string { return fmt.Sprintf("%s:%d: %s", e.File, e.Line, e.Msg) }

// ErrorList collects diagnostics.
type ErrorList []*Error

func (l ErrorList) Error() string {
	parts := make([]string, len(l))
	for i, e := range l {
		parts[i] = e.Error()
	}
	return strings.Join(parts, "\n")
}

// Err returns the list as an error, or nil when empty.
func (l ErrorList) Err() error {
	if len(l) == 0 {
		return nil
	}
	return l
}

// Options adjusts analysis of one unit.
type Options struct {
	// ParamDists maps formal-parameter names to reshaped distributions
	// propagated down the call chain by the pre-linker (§5).
	ParamDists map[string]dist.Spec
}

// AnalyzeFile analyzes every unit of a parsed file.
func AnalyzeFile(f *fortran.File) ([]*ir.Unit, error) {
	var units []*ir.Unit
	var errs ErrorList
	for _, u := range f.Units {
		iu, es := AnalyzeUnit(f.Name, u, Options{})
		errs = append(errs, es...)
		if iu != nil {
			units = append(units, iu)
		}
	}
	return units, errs.Err()
}

// AnalyzeUnit analyzes one unit.
func AnalyzeUnit(file string, u *fortran.Unit, opts Options) (*ir.Unit, ErrorList) {
	a := &analyzer{
		file: file,
		unit: &ir.Unit{
			Name:       u.Name,
			IsProgram:  u.Kind == fortran.ProgramUnit,
			SourceFile: file,
			Line:       u.Line,
		},
		syms:   map[string]*ir.Sym{},
		consts: map[string]constVal{},
		opts:   opts,
	}
	a.run(u)
	if len(a.errs) > 0 {
		return nil, a.errs
	}
	return a.unit, nil
}

type constVal struct {
	isInt bool
	i     int64
	f     float64
}

type analyzer struct {
	file   string
	unit   *ir.Unit
	syms   map[string]*ir.Sym
	consts map[string]constVal
	opts   Options
	errs   ErrorList

	// parallel-region context
	parDepth  int
	parLocals map[*ir.Sym]bool
	loopVars  []*ir.Sym
}

func (a *analyzer) errorf(line int, format string, args ...any) {
	a.errs = append(a.errs, &Error{File: a.file, Line: line, Msg: fmt.Sprintf(format, args...)})
}

// implicitType applies the Fortran default: names starting i..n are
// integer, everything else real*8.
func implicitType(name string) ir.Type {
	if name != "" && name[0] >= 'i' && name[0] <= 'n' {
		return ir.Int
	}
	return ir.Real
}

func (a *analyzer) run(u *fortran.Unit) {
	// Pass 1: create symbols for declared names and record parameter
	// constants; declaration order matters only for parameter values.
	declared := map[string]*fortran.Declarator{}
	declaredType := map[string]fortran.BaseType{}
	for _, d := range u.Decls {
		td, ok := d.(*fortran.TypeDecl)
		if !ok {
			continue
		}
		for i := range td.Items {
			it := &td.Items[i]
			if _, dup := declared[it.Name]; dup {
				a.errorf(it.Line, "%s declared twice", it.Name)
				continue
			}
			declared[it.Name] = it
			declaredType[it.Name] = td.Type
		}
	}

	// Pass 2: parameter constants, evaluated in order.
	for _, d := range u.Decls {
		pd, ok := d.(*fortran.ParamDecl)
		if !ok {
			continue
		}
		for i, name := range pd.Names {
			cv, ok := a.evalConst(pd.Values[i])
			if !ok {
				a.errorf(pd.Line, "parameter %s is not a constant expression", name)
				continue
			}
			// A declared type overrides the implicit rule.
			if bt, has := declaredType[name]; has {
				if bt == fortran.TInteger && !cv.isInt {
					cv = constVal{isInt: true, i: int64(cv.f)}
				} else if bt == fortran.TReal8 && cv.isInt {
					cv = constVal{isInt: false, f: float64(cv.i)}
				}
				delete(declared, name) // not a variable
			} else if implicitType(name) == ir.Int && !cv.isInt {
				cv = constVal{isInt: true, i: int64(cv.f)}
			}
			a.consts[name] = cv
		}
	}

	// Pass 3: materialize variable symbols (parameters excluded).
	names := make([]string, 0, len(declared))
	for n := range declared {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		it := declared[n]
		ty := ir.Real
		if declaredType[n] == fortran.TInteger {
			ty = ir.Int
		}
		s := &ir.Sym{Name: n, Type: ty, Kind: ir.Scalar, Line: it.Line}
		if it.Dims != nil {
			s.Kind = ir.Array
		}
		a.syms[n] = s
		a.unit.AddSym(s)
	}

	// Bind formal parameters.
	for i, pname := range u.Params {
		s, ok := a.syms[pname]
		if !ok {
			s = &ir.Sym{Name: pname, Type: implicitType(pname), Kind: ir.Scalar, Line: u.Line}
			a.syms[pname] = s
			a.unit.AddSym(s)
		}
		s.IsParam = true
		s.ParamIndex = i
		a.unit.Params = append(a.unit.Params, s)
	}

	// Pass 4: resolve array extents.
	for _, n := range names {
		it := declared[n]
		s := a.syms[n]
		if s.Kind != ir.Array {
			continue
		}
		for di, de := range it.Dims {
			if de == nil {
				if di != len(it.Dims)-1 {
					a.errorf(it.Line, "%s: '*' extent only allowed in the last dimension", n)
				}
				if !s.IsParam {
					a.errorf(it.Line, "%s: assumed-size arrays must be dummy arguments", n)
				}
				s.Dims = append(s.Dims, nil)
				continue
			}
			e := a.lowerExpr(de)
			if e == nil {
				s.Dims = append(s.Dims, ir.CI(1))
				continue
			}
			if e.Type() != ir.Int {
				a.errorf(it.Line, "%s: array extent must be integer", n)
				e = ir.CI(1)
			}
			s.Dims = append(s.Dims, e)
		}
	}

	// Pass 5: common blocks.
	for _, d := range u.Decls {
		cd, ok := d.(*fortran.CommonDecl)
		if !ok {
			continue
		}
		blk := &ir.CommonBlock{Name: cd.Block}
		for i, n := range cd.Names {
			s := a.lookupOrImplicit(n, cd.Line)
			if s.IsParam {
				a.errorf(cd.Line, "dummy argument %s cannot be in a common block", n)
				continue
			}
			if s.Common != "" {
				a.errorf(cd.Line, "%s already in common /%s/", n, s.Common)
				continue
			}
			s.Common = cd.Block
			s.CommonIndex = i
			blk.Members = append(blk.Members, s)
		}
		a.unit.CommonBlocks = append(a.unit.CommonBlocks, blk)
	}

	// Pass 6: distribution directives.
	for _, d := range u.Decls {
		dd, ok := d.(*fortran.DistDecl)
		if !ok {
			continue
		}
		a.applyDistribute(dd)
	}

	// Pre-linker bindings for formal parameters (§5).
	for name, spec := range a.opts.ParamDists {
		s, ok := a.syms[name]
		if !ok || !s.IsParam {
			a.errorf(u.Line, "propagated distribution for unknown dummy argument %s", name)
			continue
		}
		if s.Kind != ir.Array {
			a.errorf(u.Line, "propagated distribution for scalar dummy %s", name)
			continue
		}
		if s.Dist != nil && !s.Dist.Equal(spec) {
			a.errorf(s.Line, "dummy %s declared %s but caller passes %s", name, s.Dist, &spec)
			continue
		}
		if len(spec.Dims) != len(s.Dims) {
			a.errorf(s.Line, "dummy %s has %d dims, incoming distribution has %d",
				name, len(s.Dims), len(spec.Dims))
			continue
		}
		sp := spec
		s.Dist = &sp
	}

	// Pass 7: equivalence — the compile-time reshape check of §6.
	for _, d := range u.Decls {
		ed, ok := d.(*fortran.EquivDecl)
		if !ok {
			continue
		}
		sa := a.lookupOrImplicit(ed.A, ed.Line)
		sb := a.lookupOrImplicit(ed.B, ed.Line)
		if sa.IsReshaped() || sb.IsReshaped() {
			a.errorf(ed.Line, "reshaped array cannot be equivalenced (%s, %s)", ed.A, ed.B)
		}
	}

	// Body.
	a.unit.Body = a.lowerStmts(u.Body)

	// Main program implicitly returns.
	if a.unit.IsProgram {
		a.unit.Body = append(a.unit.Body, &ir.Return{})
	} else {
		a.unit.Body = append(a.unit.Body, &ir.Return{})
	}
}

func (a *analyzer) lookupOrImplicit(name string, line int) *ir.Sym {
	if s, ok := a.syms[name]; ok {
		return s
	}
	s := &ir.Sym{Name: name, Type: implicitType(name), Kind: ir.Scalar, Line: line}
	a.syms[name] = s
	a.unit.AddSym(s)
	return s
}

// applyDistribute validates and attaches a c$distribute[_reshape].
func (a *analyzer) applyDistribute(dd *fortran.DistDecl) {
	s, ok := a.syms[dd.Array]
	if !ok {
		a.errorf(dd.Line, "distribute names unknown array %s", dd.Array)
		return
	}
	if s.Kind != ir.Array {
		a.errorf(dd.Line, "distribute target %s is not an array", dd.Array)
		return
	}
	if len(dd.Dims) != len(s.Dims) {
		a.errorf(dd.Line, "distribute for %s has %d specifiers, array has %d dimensions",
			dd.Array, len(dd.Dims), len(s.Dims))
		return
	}
	if s.Dist != nil {
		// "A particular array must be declared either distribute or
		// distribute_reshape ... and cannot be dynamically switched"
		// (§3.2); a duplicate directive is rejected outright.
		a.errorf(dd.Line, "%s already has a distribution (%s)", dd.Array, s.Dist)
		return
	}
	spec := a.lowerDistDims(dd.Array, dd.Dims, dd.Line)
	spec.Reshape = dd.Reshape
	dd2 := spec.DistributedDims()
	if len(dd.Onto) > 0 {
		if len(dd.Onto) != len(dd2) {
			a.errorf(dd.Line, "onto has %d weights, %s has %d distributed dimensions",
				len(dd.Onto), dd.Array, len(dd2))
		} else {
			for i, oe := range dd.Onto {
				cv, ok := a.evalConst(oe)
				if !ok || !cv.isInt || cv.i <= 0 {
					a.errorf(dd.Line, "onto weight %d must be a positive integer constant", i+1)
					continue
				}
				spec.Dims[dd2[i]].Onto = int(cv.i)
			}
		}
	}
	if err := spec.Validate(); err != nil {
		a.errorf(dd.Line, "invalid distribution for %s: %v", dd.Array, err)
		return
	}
	if spec.Reshape {
		// Reshaped arrays need compile-time-known shape handling: each
		// distributed dimension's extent must be a constant unless the
		// array is a dummy (the clone knows the caller's constants are
		// checked at runtime).
		for _, d := range dd2 {
			if d < len(s.Dims) && s.Dims[d] == nil {
				a.errorf(dd.Line, "reshaped array %s cannot have an assumed-size distributed dimension", dd.Array)
			}
		}
	}
	sp := spec
	s.Dist = &sp
}
