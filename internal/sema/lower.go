package sema

import (
	"dsmdist/internal/dist"
	"dsmdist/internal/fortran"
	"dsmdist/internal/ir"
)

// Statement and expression lowering.

// evalConst evaluates a constant expression (parameter values, cyclic
// chunks, onto weights).
func (a *analyzer) evalConst(e fortran.Expr) (constVal, bool) {
	switch x := e.(type) {
	case *fortran.IntLit:
		return constVal{isInt: true, i: x.Value}, true
	case *fortran.RealLit:
		return constVal{f: x.Value}, true
	case *fortran.Ident:
		cv, ok := a.consts[x.Name]
		return cv, ok
	case *fortran.UnOp:
		cv, ok := a.evalConst(x.X)
		if !ok || !x.Neg {
			return constVal{}, false
		}
		cv.i, cv.f = -cv.i, -cv.f
		return cv, true
	case *fortran.BinOp:
		l, lok := a.evalConst(x.L)
		r, rok := a.evalConst(x.R)
		if !lok || !rok {
			return constVal{}, false
		}
		if l.isInt && r.isInt {
			out := constVal{isInt: true}
			switch x.Op {
			case fortran.OpAdd:
				out.i = l.i + r.i
			case fortran.OpSub:
				out.i = l.i - r.i
			case fortran.OpMul:
				out.i = l.i * r.i
			case fortran.OpDiv:
				if r.i == 0 {
					return constVal{}, false
				}
				out.i = l.i / r.i
			default:
				return constVal{}, false
			}
			return out, true
		}
		lf, rf := l.f, r.f
		if l.isInt {
			lf = float64(l.i)
		}
		if r.isInt {
			rf = float64(r.i)
		}
		out := constVal{}
		switch x.Op {
		case fortran.OpAdd:
			out.f = lf + rf
		case fortran.OpSub:
			out.f = lf - rf
		case fortran.OpMul:
			out.f = lf * rf
		case fortran.OpDiv:
			if rf == 0 {
				return constVal{}, false
			}
			out.f = lf / rf
		default:
			return constVal{}, false
		}
		return out, true
	}
	return constVal{}, false
}

func (a *analyzer) lowerStmts(ss []fortran.Stmt) []ir.Stmt {
	var out []ir.Stmt
	for _, s := range ss {
		out = a.lowerStmt(out, s)
	}
	return out
}

func (a *analyzer) lowerStmt(out []ir.Stmt, s fortran.Stmt) []ir.Stmt {
	switch x := s.(type) {
	case *fortran.Assign:
		lhs := a.lowerLvalue(x.Lhs, x.Line)
		rhs := a.lowerExpr(x.Rhs)
		if lhs == nil || rhs == nil {
			return out
		}
		rhs = a.coerce(rhs, lhs.Type())
		// Writing a non-local scalar inside a doacross is a race; the
		// paper's model has no shared scalar assignment semantics, so
		// reject it (error-detection support in the spirit of §6).
		if vr, ok := lhs.(*ir.VarRef); ok && a.parDepth > 0 {
			if !a.parLocals[vr.Sym] {
				a.errorf(x.Line, "scalar %s assigned inside doacross but not in its local clause", vr.Sym.Name)
			}
		}
		if vr, ok := lhs.(*ir.VarRef); ok {
			for _, lv := range a.loopVars {
				if lv == vr.Sym {
					a.errorf(x.Line, "assignment to active do variable %s", vr.Sym.Name)
				}
			}
		}
		return append(out, &ir.Assign{Lhs: lhs, Rhs: rhs})

	case *fortran.Do:
		return append(out, a.lowerDo(x))

	case *fortran.If:
		cond := a.lowerExpr(x.Cond)
		if cond == nil {
			return out
		}
		if cond.Type() != ir.Int {
			a.errorf(x.Line, "if condition must be logical")
		}
		return append(out, &ir.If{Cond: cond, Then: a.lowerStmts(x.Then), Else: a.lowerStmts(x.Else)})

	case *fortran.Call:
		return a.lowerCall(out, x)

	case *fortran.Return:
		return append(out, &ir.Return{})

	case *fortran.Continue:
		return out

	case *fortran.Redistribute:
		sym, ok := a.syms[x.Array]
		if !ok || sym.Kind != ir.Array {
			a.errorf(x.Line, "redistribute names unknown array %s", x.Array)
			return out
		}
		if sym.Dist == nil {
			a.errorf(x.Line, "redistribute target %s has no distribution", x.Array)
			return out
		}
		if sym.Dist.Reshape {
			// §3.3: "We do not allow redistribution of reshaped
			// arrays".
			a.errorf(x.Line, "cannot redistribute reshaped array %s", x.Array)
			return out
		}
		if a.parDepth > 0 {
			a.errorf(x.Line, "redistribute inside a parallel loop")
			return out
		}
		if len(x.Dims) != len(sym.Dims) {
			a.errorf(x.Line, "redistribute for %s has %d specifiers, array has %d dimensions",
				x.Array, len(x.Dims), len(sym.Dims))
			return out
		}
		spec := a.lowerDistDims(x.Array, x.Dims, x.Line)
		sym.Redistributed = true
		return append(out, &ir.Redist{Sym: sym, Spec: spec, Line: x.Line})
	}
	return out
}

// maxChunk bounds the k of cyclic(k): see lowerDistDims.
const maxChunk = 1<<31 - 1

// lowerDistDims turns the per-dimension specifiers of a c$distribute,
// c$distribute_reshape or c$redistribute on array into a dist.Spec.
func (a *analyzer) lowerDistDims(array string, dims []fortran.DistDim, line int) dist.Spec {
	spec := dist.Spec{Dims: make([]dist.Dim, len(dims))}
	for i, sd := range dims {
		switch sd.Kind {
		case fortran.DStar:
			spec.Dims[i].Kind = dist.Star
		case fortran.DBlock:
			spec.Dims[i].Kind = dist.Block
		case fortran.DCyclic:
			spec.Dims[i].Kind = dist.Cyclic
		case fortran.DCyclicExpr:
			spec.Dims[i].Kind = dist.BlockCyclic
			cv, ok := a.evalConst(sd.Chunk)
			spec.Dims[i].Chunk = 1
			switch {
			case !ok || !cv.isInt || cv.i <= 0:
				a.errorf(line, "cyclic chunk for %s dim %d must be a positive integer constant", array, i+1)
			case cv.i > maxChunk:
				// Generated code multiplies the chunk by the processor
				// count (Table 1's k*P); beyond 31 bits that product
				// is not representable for every P.
				a.errorf(line, "cyclic chunk %d for %s dim %d exceeds the %d (2^31-1) limit", cv.i, array, i+1, maxChunk)
			default:
				spec.Dims[i].Chunk = int(cv.i)
			}
		}
	}
	return spec
}
