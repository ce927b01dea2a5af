package codegen

import (
	"fmt"
	"sort"

	"dsmdist/internal/bytecode"
	"dsmdist/internal/dist"
	"dsmdist/internal/ir"
)

// bindKind classifies how a symbol is accessed within one function.
type bindKind int

const (
	bindReg      bindKind = iota // scalar in a register
	bindFrame                    // scalar in frame memory at offset
	bindParamPtr                 // scalar parameter: register holds its address
	bindArrayPtr                 // array parameter: register holds base (or descriptor) address
	bindStatic                   // static storage: DataSym + offset
)

type binding struct {
	kind   bindKind
	reg    int32
	off    int64
	sym    int // DataSym index for bindStatic
	symOff int64
}

// fnc compiles one function (a unit body or an outlined region).
type fnc struct {
	g     *gen
	u     *ir.Unit
	fn    *bytecode.Fn
	fnIdx int

	bind    map[*ir.Sym]*binding
	nextReg int32

	// inRegion marks region functions (Myid is meaningful).
	inRegion bool
	regionN  int // per-unit region counter (on the parent)
}

// compileUnit compiles a unit's body into its reserved Fn slot (regions are
// appended as they are encountered).
func (g *gen) compileUnit(u *ir.Unit, idx int) error {
	g.unit = u
	f := g.res.Prog.Fns[idx]
	c := &fnc{g: g, u: u, fn: f, fnIdx: idx, bind: map[*ir.Sym]*binding{}, nextReg: 1}

	// Prologue: bind parameters (incoming values are addresses; for
	// reshaped arrays, descriptor addresses).
	for i, p := range u.Params {
		r := c.reg()
		c.emit(bytecode.GetArg, r, int32(i), 0, 0)
		if p.Kind == ir.Array {
			c.bind[p] = &binding{kind: bindArrayPtr, reg: r}
		} else {
			c.bind[p] = &binding{kind: bindParamPtr, reg: r}
		}
	}
	// Callee-side runtime checks for array formals (§6).
	if g.opts.RuntimeChecks {
		for _, p := range u.Params {
			if p.Kind != ir.Array {
				continue
			}
			id := c.formalCheckInfo(p)
			idReg := c.reg()
			c.emit(bytecode.LdI, idReg, 0, 0, int64(id))
			// args: address, check id — consecutive registers.
			aReg := c.reg()
			c.emit(bytecode.Mov, aReg, c.bind[p].reg, 0, 0)
			bReg := c.reg()
			c.emit(bytecode.Mov, bReg, idReg, 0, 0)
			c.emit(bytecode.RTC, bytecode.RTArgCheck, aReg, 2, 0)
		}
	}

	// Dynamically sized local arrays: allocate automatic storage now
	// that parameter values are available.
	for _, s := range u.Syms {
		if s.Kind != ir.Array || s.IsParam || s.Common != "" {
			continue
		}
		if _, constDims := s.ConstDims(); constDims {
			continue
		}
		size := ir.Expr(ir.CI(8))
		for _, d := range s.Dims {
			if d == nil {
				return c.errf("dynamic local %s cannot be assumed-size", s.Name)
			}
			size = ir.IMul(size, ir.CloneExpr(d))
		}
		szReg, err := c.expr(size)
		if err != nil {
			return err
		}
		a0 := c.reg()
		c.emit(bytecode.Mov, a0, szReg, 0, 0)
		c.emit(bytecode.RTC, bytecode.RTAllocStack, a0, 1, 0)
		c.bind[s] = &binding{kind: bindArrayPtr, reg: a0}
	}

	if err := c.stmts(u.Body); err != nil {
		return err
	}
	c.emit(bytecode.Ret, 0, 0, 0, 0)
	c.fn.NRegs = int(c.nextReg)
	return nil
}

// formalCheckInfo registers the callee-side description of an array formal.
func (c *fnc) formalCheckInfo(p *ir.Sym) int {
	info := CheckInfo{Kind: CheckFormal, Array: p.Name, Unit: c.u.Name, Line: p.Line}
	if dims, ok := p.ConstDims(); ok {
		info.Dims = dims
		info.Bytes, _ = arrayBytes(dims)
	}
	info.Spec = p.Dist
	c.g.res.Checks = append(c.g.res.Checks, info)
	return len(c.g.res.Checks) - 1
}

func (c *fnc) reg() int32 {
	r := c.nextReg
	c.nextReg++
	return r
}

func (c *fnc) emit(op bytecode.Op, a, b, ci int32, imm int64) int {
	c.fn.Code = append(c.fn.Code, bytecode.Instr{Op: op, A: a, B: b, C: ci, Imm: imm})
	return len(c.fn.Code) - 1
}

// reloc records that the last-emitted instruction's Imm must be patched to
// symbol+addend.
func (c *fnc) reloc(sym int, addend int64) {
	c.g.res.Prog.Relocs = append(c.g.res.Prog.Relocs, bytecode.Reloc{
		Fn: c.fnIdx, PC: len(c.fn.Code) - 1, Sym: sym, Addend: addend,
	})
}

func (c *fnc) errf(format string, args ...any) error {
	return fmt.Errorf("codegen %s: %s", c.u.Name, fmt.Sprintf(format, args...))
}

// bindingOf resolves (lazily creating) the binding for a symbol.
func (c *fnc) bindingOf(s *ir.Sym) *binding {
	if b, ok := c.bind[s]; ok {
		return b
	}
	var b *binding
	switch {
	case s.Kind == ir.Array:
		// Static array (local or common).
		if pi, ok := c.g.arrayPlan[s]; ok {
			plan := c.g.res.Arrays[pi]
			b = &binding{kind: bindStatic, sym: plan.DataSym, symOff: plan.DataOffset}
		} else if s.Common != "" {
			sym, off := c.g.commonOffset(c.u, s)
			b = &binding{kind: bindStatic, sym: sym, symOff: off}
		} else {
			b = &binding{kind: bindStatic, sym: -1}
		}
	case s.Common != "":
		sym, off := c.g.commonOffset(c.u, s)
		b = &binding{kind: bindStatic, sym: sym, symOff: off}
	case s.Addressed:
		b = &binding{kind: bindFrame, off: c.fn.FrameBytes}
		c.fn.FrameBytes += 8
	default:
		b = &binding{kind: bindReg, reg: c.reg()}
	}
	c.bind[s] = b
	return b
}

// descHandle returns a register holding the descriptor base address of a
// distributed array.
func (c *fnc) descHandle(s *ir.Sym) (int32, error) {
	if b, ok := c.bind[s]; ok && b.kind == bindArrayPtr {
		// Parameter (or region capture of one): the incoming value is
		// the caller's descriptor address for reshaped arrays.
		return b.reg, nil
	}
	if s.IsParam {
		return 0, c.errf("parameter %s has no incoming descriptor", s.Name)
	}
	pi, ok := c.g.arrayPlan[s]
	if !ok || c.g.res.Arrays[pi].DescSym < 0 {
		return 0, c.errf("array %s has no descriptor", s.Name)
	}
	r := c.reg()
	c.emit(bytecode.LdI, r, 0, 0, 0)
	c.reloc(c.g.res.Arrays[pi].DescSym, 0)
	return r, nil
}

// baseHandle returns a register holding the data base address of a
// non-reshaped array.
func (c *fnc) baseHandle(s *ir.Sym) (int32, error) {
	b := c.bindingOf(s)
	switch b.kind {
	case bindArrayPtr:
		return b.reg, nil
	case bindStatic:
		if b.sym < 0 {
			return 0, c.errf("array %s has no storage", s.Name)
		}
		r := c.reg()
		c.emit(bytecode.LdI, r, 0, 0, 0)
		c.reloc(b.sym, b.symOff)
		return r, nil
	}
	return 0, c.errf("array %s has unexpected binding", s.Name)
}

// --- statements ---

func (c *fnc) stmts(ss []ir.Stmt) error {
	for _, s := range ss {
		if err := c.stmt(s); err != nil {
			return err
		}
	}
	return nil
}

func (c *fnc) stmt(s ir.Stmt) error {
	switch st := s.(type) {
	case *ir.Assign:
		return c.assign(st)
	case *ir.Do:
		return c.doLoop(st)
	case *ir.If:
		return c.ifStmt(st)
	case *ir.CallStmt:
		return c.call(st)
	case *ir.Return:
		c.emit(bytecode.Ret, 0, 0, 0, 0)
		return nil
	case *ir.Redist:
		return c.redist(st)
	case *ir.Barrier:
		r := c.reg()
		c.emit(bytecode.LdI, r, 0, 0, 0)
		c.emit(bytecode.RTC, bytecode.RTBarrier, r, 0, 0)
		return nil
	case *ir.TimerMark:
		r := c.reg()
		c.emit(bytecode.LdI, r, 0, 0, 0)
		id := int32(bytecode.RTTimerStart)
		if st.Stop {
			id = bytecode.RTTimerStop
		}
		c.emit(bytecode.RTC, id, r, 0, 0)
		return nil
	case *ir.Region:
		return c.region(st)
	}
	return c.errf("unknown statement %T", s)
}

func (c *fnc) assign(st *ir.Assign) error {
	switch lhs := st.Lhs.(type) {
	case *ir.VarRef:
		val, err := c.expr(st.Rhs)
		if err != nil {
			return err
		}
		return c.storeScalar(lhs.Sym, val)
	case *ir.ArrayRef:
		addr, err := c.arrayAddr(lhs)
		if err != nil {
			return err
		}
		val, err := c.expr(st.Rhs)
		if err != nil {
			return err
		}
		c.emit(bytecode.St, val, addr, 0, 0)
		return nil
	case *ir.MemRef:
		addr, err := c.expr(lhs.Addr)
		if err != nil {
			return err
		}
		val, err := c.expr(st.Rhs)
		if err != nil {
			return err
		}
		c.emit(bytecode.St, val, addr, 0, 0)
		return nil
	}
	return c.errf("bad assignment target %T", st.Lhs)
}

func (c *fnc) storeScalar(s *ir.Sym, val int32) error {
	b := c.bindingOf(s)
	switch b.kind {
	case bindReg:
		c.emit(bytecode.Mov, b.reg, val, 0, 0)
	case bindFrame:
		c.emit(bytecode.St, val, bytecode.FPReg, 0, b.off)
	case bindParamPtr:
		c.emit(bytecode.St, val, b.reg, 0, 0)
	case bindStatic:
		r := c.reg()
		c.emit(bytecode.LdI, r, 0, 0, 0)
		c.reloc(b.sym, b.symOff)
		c.emit(bytecode.St, val, r, 0, 0)
	default:
		return c.errf("cannot store scalar %s", s.Name)
	}
	return nil
}

func (c *fnc) doLoop(st *ir.Do) error {
	vb := c.bindingOf(st.Var)
	if vb.kind != bindReg {
		// Loop variables in memory would be pathological; force a
		// register copy semantics: use a register and write back after.
		return c.errf("do variable %s must be register-resident (is it in a common block or passed by reference?)", st.Var.Name)
	}
	lo, err := c.expr(st.Lo)
	if err != nil {
		return err
	}
	c.emit(bytecode.Mov, vb.reg, lo, 0, 0)
	hiv, err := c.expr(st.Hi)
	if err != nil {
		return err
	}
	hiReg := c.reg()
	c.emit(bytecode.Mov, hiReg, hiv, 0, 0)

	stepReg := c.reg()
	negative := false
	if st.Step == nil {
		c.emit(bytecode.LdI, stepReg, 0, 0, 1)
	} else {
		sv, err := c.expr(st.Step)
		if err != nil {
			return err
		}
		c.emit(bytecode.Mov, stepReg, sv, 0, 0)
		if cst, ok := ir.IntConst(st.Step); ok && cst < 0 {
			negative = true
		}
	}

	top := len(c.fn.Code)
	exitOp := bytecode.Bgt
	if negative {
		exitOp = bytecode.Blt
	}
	exitJmp := c.emit(exitOp, vb.reg, hiReg, 0, 0)
	if err := c.stmts(st.Body); err != nil {
		return err
	}
	c.emit(bytecode.Add, vb.reg, vb.reg, stepReg, 0)
	c.emit(bytecode.Jmp, int32(top), 0, 0, 0)
	c.fn.Code[exitJmp].C = int32(len(c.fn.Code))
	return nil
}

func (c *fnc) ifStmt(st *ir.If) error {
	cond, err := c.expr(st.Cond)
	if err != nil {
		return err
	}
	bz := c.emit(bytecode.Bz, cond, 0, 0, 0)
	if err := c.stmts(st.Then); err != nil {
		return err
	}
	if len(st.Else) == 0 {
		c.fn.Code[bz].C = int32(len(c.fn.Code))
		return nil
	}
	jend := c.emit(bytecode.Jmp, 0, 0, 0, 0)
	c.fn.Code[bz].C = int32(len(c.fn.Code))
	if err := c.stmts(st.Else); err != nil {
		return err
	}
	c.fn.Code[jend].A = int32(len(c.fn.Code))
	return nil
}

func (c *fnc) redist(st *ir.Redist) error {
	pi, ok := c.g.arrayPlan[st.Sym]
	if !ok {
		return c.errf("redistribute of unplanned array %s", st.Sym.Name)
	}
	c.g.res.Redists = append(c.g.res.Redists, RedistPlan{Array: pi, Spec: st.Spec})
	id := len(c.g.res.Redists) - 1
	r := c.reg()
	c.emit(bytecode.LdI, r, 0, 0, int64(id))
	c.emit(bytecode.RTC, bytecode.RTRedist, r, 1, 0)
	return nil
}

// callSig extracts the reshaped-distribution signature of a call's
// arguments for clone resolution (§5): whole reshaped arrays carry their
// spec; everything else is nil.
func callSig(st *ir.CallStmt) []*dist.Spec {
	sig := make([]*dist.Spec, len(st.Args))
	for i, a := range st.Args {
		if aa, ok := a.(*ir.ArgArray); ok && aa.Sym.IsReshaped() {
			sig[i] = aa.Sym.Dist
		}
	}
	return sig
}

func (c *fnc) call(st *ir.CallStmt) error {
	fnIdx, err := c.g.env.Resolve(st.Callee, callSig(st))
	if err != nil {
		return c.errf("line %d: %v", st.Line, err)
	}

	type pushRec struct {
		addr int32
		id   int
	}
	var pushes []pushRec

	// Stage arguments.
	for i, a := range st.Args {
		var addr int32
		switch arg := a.(type) {
		case *ir.VarRef: // addressed scalar
			addr, err = c.scalarAddr(arg.Sym)
		case *ir.ArrayRef: // element address (non-reshaped arrays)
			addr, err = c.arrayAddr(arg)
		case *ir.MemRef: // element of a reshaped array (post-xform)
			addr, err = c.expr(arg.Addr)
			if err == nil && c.g.opts.RuntimeChecks {
				// Passing a portion: record its size (§3.2.1).
				if id, ok := c.portionCheckInfo(arg); ok {
					pushes = append(pushes, pushRec{addr, id})
				}
			}
		case *ir.ArgArray:
			if arg.Sym.IsReshaped() {
				addr, err = c.descHandle(arg.Sym)
				if err == nil && c.g.opts.RuntimeChecks {
					pushes = append(pushes, pushRec{addr, c.wholeCheckInfo(arg.Sym, st.Line)})
				}
			} else {
				addr, err = c.baseHandle(arg.Sym)
			}
		default:
			err = c.errf("line %d: unsupported argument %d to %s", st.Line, i+1, st.Callee)
		}
		if err != nil {
			return err
		}
		c.emit(bytecode.SetArg, int32(i), addr, 0, 0)
	}

	// §6: push actual-argument facts before the call, pop after.
	for _, p := range pushes {
		a := c.reg()
		c.emit(bytecode.Mov, a, p.addr, 0, 0)
		b := c.reg()
		c.emit(bytecode.LdI, b, 0, 0, int64(p.id))
		c.emit(bytecode.RTC, bytecode.RTArgPush, a, 2, 0)
	}
	c.emit(bytecode.Call, 0, 0, int32(len(st.Args)), int64(fnIdx))
	if n := len(pushes); n > 0 {
		r := c.reg()
		c.emit(bytecode.LdI, r, 0, 0, int64(n))
		c.emit(bytecode.RTC, bytecode.RTArgPop, r, 1, 0)
	}
	return nil
}

func (c *fnc) wholeCheckInfo(s *ir.Sym, line int) int {
	info := CheckInfo{Kind: CheckWhole, Array: s.Name, Unit: c.u.Name, Line: line, Spec: s.Dist}
	if dims, ok := s.ConstDims(); ok {
		info.Dims = dims
		info.Bytes, _ = arrayBytes(dims)
	}
	c.g.res.Checks = append(c.g.res.Checks, info)
	return len(c.g.res.Checks) - 1
}

// portionCheckInfo records the portion size for an element-of-reshaped
// argument; the size is the per-processor portion capacity.
func (c *fnc) portionCheckInfo(m *ir.MemRef) (int, bool) {
	// Find the array: the address expression contains its PortionBase.
	var sym *ir.Sym
	ir.WalkExpr(m.Addr, func(e ir.Expr) bool {
		if pb, ok := e.(*ir.PortionBase); ok {
			sym = pb.Sym
		}
		return sym == nil
	})
	if sym == nil {
		return 0, false
	}
	info := CheckInfo{Kind: CheckPortion, Array: sym.Name, Unit: c.u.Name, Spec: sym.Dist}
	if dims, ok := sym.ConstDims(); ok {
		bytes := int64(8)
		// Portion capacity: product of max portion lengths under the
		// runtime grid; unknown at compile time, so record dims and
		// let the runtime compute it.
		info.Dims = dims
		info.Bytes = bytes
	}
	c.g.res.Checks = append(c.g.res.Checks, info)
	return len(c.g.res.Checks) - 1, true
}

// scalarAddr yields a register holding the address of an addressed scalar.
func (c *fnc) scalarAddr(s *ir.Sym) (int32, error) {
	b := c.bindingOf(s)
	switch b.kind {
	case bindFrame:
		r := c.reg()
		c.emit(bytecode.LdI, r, 0, 0, b.off)
		r2 := c.reg()
		c.emit(bytecode.Add, r2, r, bytecode.FPReg, 0)
		return r2, nil
	case bindParamPtr:
		return b.reg, nil
	case bindStatic:
		r := c.reg()
		c.emit(bytecode.LdI, r, 0, 0, 0)
		c.reloc(b.sym, b.symOff)
		return r, nil
	}
	return 0, c.errf("scalar %s has no address (not marked addressed?)", s.Name)
}

// --- regions ---

// region outlines a doacross body into a region function and emits the
// ParCall.
func (c *fnc) region(st *ir.Region) error {
	// Determine captures: scalars read but not assigned inside (and not
	// static/common), plus array parameters referenced inside.
	assigned := regionAssigned(st.Body)
	for _, l := range st.Par.Local {
		assigned[l] = true
	}
	// Arrays whose base (or descriptor) lives in one of the enclosing
	// frame's registers — parameters and dynamically sized locals — must
	// be captured by value; statics are reached through relocations.
	needsCapture := func(s *ir.Sym) bool {
		if s.IsParam {
			return true
		}
		b, ok := c.bind[s]
		return ok && b.kind == bindArrayPtr
	}
	capSet := map[*ir.Sym]bool{}
	ir.WalkStmts(st.Body, nil, func(e ir.Expr) bool {
		switch x := e.(type) {
		case *ir.VarRef:
			s := x.Sym
			if s.Kind == ir.Scalar && !assigned[s] && s.Common == "" {
				capSet[s] = true
			}
		case *ir.ArrayRef:
			if needsCapture(x.Sym) {
				capSet[x.Sym] = true
			}
		case *ir.ArrayBase:
			if needsCapture(x.Sym) {
				capSet[x.Sym] = true
			}
		case *ir.DescField:
			if needsCapture(x.Sym) {
				capSet[x.Sym] = true
			}
		case *ir.PortionBase:
			if needsCapture(x.Sym) {
				capSet[x.Sym] = true
			}
		case *ir.ArgArray:
			if needsCapture(x.Sym) {
				capSet[x.Sym] = true
			}
		case *ir.RTFunc:
			if x.Sym != nil && needsCapture(x.Sym) {
				capSet[x.Sym] = true
			}
		}
		return true
	})
	// Scalars passed by reference to calls inside the region are
	// assigned from the region's view; ensure they're treated as local
	// (fresh frame copies), not captured... unless read-only captured
	// above. Call args were collected by regionAssigned already.

	caps := make([]*ir.Sym, 0, len(capSet))
	for s := range capSet {
		caps = append(caps, s)
	}
	sort.Slice(caps, func(i, j int) bool { return caps[i].ID < caps[j].ID })

	// Compile the region function.
	rf := &bytecode.Fn{
		Name:     fmt.Sprintf("%s$r%d", c.u.Name, c.regionN),
		NArgs:    len(caps),
		IsRegion: true,
		File:     c.u.SourceFile,
		Line:     st.Par.Line,
	}
	c.regionN++
	rfIdx := len(c.g.res.Prog.Fns)
	c.g.res.Prog.Fns = append(c.g.res.Prog.Fns, rf)

	rc := &fnc{g: c.g, u: c.u, fn: rf, fnIdx: rfIdx,
		bind: map[*ir.Sym]*binding{}, nextReg: 1, inRegion: true}
	for i, s := range caps {
		r := rc.reg()
		rc.emit(bytecode.GetArg, r, int32(i), 0, 0)
		if s.Kind == ir.Array {
			rc.bind[s] = &binding{kind: bindArrayPtr, reg: r}
		} else if s.Addressed || s.IsParam {
			// Value captured; give it frame storage so its address
			// can be taken inside the region.
			b := &binding{kind: bindFrame, off: rf.FrameBytes}
			rf.FrameBytes += 8
			rc.emit(bytecode.St, r, bytecode.FPReg, 0, b.off)
			rc.bind[s] = b
		} else {
			rc.bind[s] = &binding{kind: bindReg, reg: r}
		}
	}
	if err := rc.stmts(st.Body); err != nil {
		return err
	}
	rc.emit(bytecode.Ret, 0, 0, 0, 0)
	rf.NRegs = int(rc.nextReg)

	// Caller side: evaluate capture values into consecutive registers.
	first := c.nextReg
	regs := make([]int32, len(caps))
	for i := range caps {
		regs[i] = c.reg()
	}
	for i, s := range caps {
		if s.Kind == ir.Array {
			b := c.bind[s]
			if b == nil || b.kind != bindArrayPtr {
				return c.errf("array capture %s has no register base", s.Name)
			}
			c.emit(bytecode.Mov, regs[i], b.reg, 0, 0)
			continue
		}
		v, err := c.loadScalar(s)
		if err != nil {
			return err
		}
		c.emit(bytecode.Mov, regs[i], v, 0, 0)
	}
	c.emit(bytecode.ParCall, first, 0, int32(len(caps)), int64(rfIdx))
	return nil
}

// regionAssigned mirrors xform's collectAssigned for capture analysis.
func regionAssigned(ss []ir.Stmt) map[*ir.Sym]bool {
	set := map[*ir.Sym]bool{}
	ir.WalkStmts(ss, func(s ir.Stmt) bool {
		switch st := s.(type) {
		case *ir.Assign:
			if vr, ok := st.Lhs.(*ir.VarRef); ok {
				set[vr.Sym] = true
			}
		case *ir.Do:
			set[st.Var] = true
		case *ir.CallStmt:
			for _, a := range st.Args {
				if vr, ok := a.(*ir.VarRef); ok {
					set[vr.Sym] = true
				}
			}
		}
		return true
	}, nil)
	return set
}
