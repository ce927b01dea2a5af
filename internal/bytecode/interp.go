package bytecode

import (
	"errors"
	"fmt"
	"math"

	"dsmdist/internal/machine"
	"dsmdist/internal/memsim"
)

// Runtime is the service interface the RTC instruction dispatches to; the
// runtime library (internal/rtl) implements it.
type Runtime interface {
	// RTCall performs runtime call id for the thread's processor with
	// the given integer arguments and returns a result (0 when unused).
	RTCall(t *Thread, id int, args []int64) (int64, error)
}

// Status is the result of running a thread for a quantum.
type Status int

const (
	Running   Status = iota // quantum exhausted, more work pending
	Done                    // function returned / program halted
	AtParCall               // stopped at a ParCall; executor must fan out
	AtBarrier               // stopped at an explicit dsm_barrier rendezvous
)

// ErrBarrier is the sentinel a Runtime returns from RTCall to request a
// barrier rendezvous; the interpreter converts it into AtBarrier status and
// the executor releases the thread once all peers arrive.
var ErrBarrier = errors.New("bytecode: barrier rendezvous")

// Costs is the per-opcode cycle table derived from a machine config. The
// table spans the whole uint8 opcode space so indexing it with an Op never
// needs a bounds check on the interpreter's hot path.
type Costs struct {
	tab  [256]int64
	ldst int64
	// line is the simulated L1 line size in bytes; the compiler's run
	// recognizer (memrun.go) only fuses memory runs whose stride keeps
	// several words per line, where batching the walk actually pays.
	line int64
}

// NewCosts builds the cycle table.
func NewCosts(cfg *machine.Config) *Costs {
	c := &Costs{}
	set := func(ops []Op, cyc int) {
		for _, o := range ops {
			c.tab[o] = int64(cyc)
		}
	}
	set([]Op{Nop, LdI, Mov, Add, Sub, Neg, NotL, MinI, MaxI, AbsI,
		CmpLt, CmpLe, CmpEq, CmpNe, MyidOp, NprocsOp, SetArg, GetArg}, cfg.IntOpCyc)
	set([]Op{Mul}, cfg.IntMulCyc)
	set([]Op{DivI, ModI}, cfg.IntDivCyc)
	// The §7.3 software divide: an FP divide plus a couple of fixups.
	set([]Op{FpDivI, FpModI}, cfg.FpDivCyc+2*cfg.IntOpCyc)
	set([]Op{AddF, SubF, NegF, MinF, MaxF, AbsF, CmpLtF, CmpLeF, CmpEqF, CmpNeF,
		CvtIF, CvtFI}, cfg.FpOpCyc)
	set([]Op{MulF}, cfg.FpMulCyc)
	set([]Op{DivF}, cfg.FpDivCyc)
	set([]Op{SqrtF}, 2*cfg.FpDivCyc)
	set([]Op{Jmp, Bz, Bnz, Blt, Ble, Bgt, Bge, Beq, Bne}, cfg.BranchCyc)
	set([]Op{Call, Ret, ParCall}, 4*cfg.IntOpCyc)
	set([]Op{Halt, RTC}, cfg.IntOpCyc)
	set([]Op{Ld, St}, cfg.IntOpCyc)
	c.ldst = int64(cfg.IntOpCyc)
	c.line = int64(cfg.L1LineSize)
	return c
}

type frame struct {
	fn      *Fn
	pc      int
	regs    []int64
	args    []int64
	outArgs []int64
	savedSP int64
	// cfn caches the compiled translation of fn; the compiled trampoline
	// resolves it lazily on first dispatch of the frame. Always nil on the
	// classic tier.
	cfn *compiledFn
	// ownArgs marks args slices allocated by the interpreter's Call path
	// (recyclable at Ret); the bottom frame's args belong to the caller
	// of NewThread and are never returned to the free list.
	ownArgs bool
}

// Thread is one processor's execution state. Threads are created by the
// executor: one long-lived serial thread on processor 0, plus one per
// processor for each parallel region.
type Thread struct {
	Proc int
	Sys  *memsim.System
	Prog *Program
	RT   Runtime

	// SP is the stack pointer for addressed-scalar frames; the executor
	// initializes it into the processor's stack segment.
	SP       int64
	StackEnd int64

	costs  *Costs
	frames []frame

	// cp, when non-nil, selects the block-compiled execution tier: the
	// program has been pre-translated into fused closures (compile.go)
	// and StepCycles dispatches through the compiled trampoline instead
	// of the classic switch loop. Results are bit-identical either way.
	cp *Compiled
	// k is the compiled trampoline's scratch state (embedded so a
	// quantum allocates nothing).
	k kern

	// free is a LIFO free list of int64 slices recycled across Call/Ret
	// (register files, out-arg buffers, argument vectors). Frames churn
	// fast in call-heavy code; without the list every Call allocates.
	free [][]int64

	// At a ParCall these describe the pending region.
	ParFn   int
	ParArgs []int64

	// Operation counters (the Table 2 ablation reads these: how many
	// hardware vs software divides the generated code executed).
	HwDiv   int64 // DivI/ModI executed
	SoftDiv int64 // FpDivI/FpModI executed
	Instrs  int64 // total instructions executed

	Err error
}

// RuntimeError carries a trap with source context.
type RuntimeError struct {
	Fn  string
	PC  int
	Msg string
}

func (e *RuntimeError) Error() string {
	return fmt.Sprintf("runtime error in %s at pc=%d: %s", e.Fn, e.PC, e.Msg)
}

// NewThread creates a thread poised to run fn with the given incoming args.
func NewThread(proc int, sys *memsim.System, prog *Program, rt Runtime, costs *Costs,
	fnIdx int, args []int64, sp, stackEnd int64) *Thread {
	t := &Thread{Proc: proc, Sys: sys, Prog: prog, RT: rt, SP: sp, StackEnd: stackEnd, costs: costs}
	t.push(prog.Fns[fnIdx], args)
	return t
}

// maxFree bounds the slice free list; beyond it, retired buffers go to
// the garbage collector.
const maxFree = 64

// getSlice returns a zeroed slice of length n, recycling from the free
// list when a retired buffer is large enough.
func (t *Thread) getSlice(n int) []int64 {
	for i := len(t.free) - 1; i >= 0; i-- {
		if cap(t.free[i]) >= n {
			s := t.free[i][:n]
			t.free[i] = t.free[len(t.free)-1]
			t.free = t.free[:len(t.free)-1]
			for j := range s {
				s[j] = 0
			}
			return s
		}
	}
	return make([]int64, n)
}

// putSlice retires a buffer to the free list.
func (t *Thread) putSlice(s []int64) {
	if s == nil || len(t.free) >= maxFree {
		return
	}
	t.free = append(t.free, s)
}

func (t *Thread) push(fn *Fn, args []int64) {
	f := frame{fn: fn, regs: t.getSlice(fn.NRegs), args: args, savedSP: t.SP}
	if fn.MaxOutArgs > 0 {
		f.outArgs = t.getSlice(fn.MaxOutArgs)
	}
	if fn.FrameBytes > 0 {
		f.regs[FPReg] = t.SP
		t.SP += fn.FrameBytes
	}
	t.frames = append(t.frames, f)
}

// Depth returns the call depth (tests).
func (t *Thread) Depth() int { return len(t.frames) }

func (t *Thread) trap(f *frame, format string, args ...any) Status {
	t.Err = &RuntimeError{Fn: f.fn.Name, PC: f.pc - 1, Msg: fmt.Sprintf(format, args...)}
	return Done
}

// Resume must be called after the executor finishes a ParCall fan-out.
func (t *Thread) Resume() {
	t.ParFn = -1
	t.ParArgs = nil
}

// Step executes up to quantum instructions, returning the thread status.
func (t *Thread) Step(quantum int) Status {
	return t.StepCycles(quantum, 1<<62)
}

// StepCycles executes until either `quantum` instructions have run or the
// processor's clock has advanced by at least maxCyc cycles. The executor
// uses the cycle bound to keep concurrently simulated processors within one
// bandwidth window of each other, so the shared memory-contention model
// sees a faithful arrival order.
//
// Dispatch semantics contract (any execution tier must honor it exactly):
// the cycle bound is only consulted at instruction counts n with n&15 == 0,
// *before* executing instruction n, comparing Clock+cyc-start >= maxCyc;
// the break charges the pending cycles but counts the unexecuted iteration
// in Instrs. Quantum boundaries feed the region scheduler's choice of the
// next processor, so a tier that breaks at different points changes
// simulated arrival order.
//
// Cycle and instruction counts accumulate in locals and are flushed at the
// exits and before every memory or runtime call (the memory model's
// bandwidth windows read the clock); that batching is a pure host-side
// optimization — the charged cycles are identical to charging per
// instruction.
func (t *Thread) StepCycles(quantum int, maxCyc int64) Status {
	if t.cp != nil {
		return t.stepCompiled(quantum, maxCyc)
	}
	return t.stepClassic(quantum, maxCyc)
}

// UseCompiled switches the thread onto the block-compiled execution tier
// (nil reverts to the classic interpreter). The executor sets this at
// thread creation; both tiers are bit-identical in simulated behavior.
func (t *Thread) UseCompiled(cp *Compiled) { t.cp = cp }

// CompiledTier returns the thread's compiled translation (nil on the
// classic tier); the executor propagates it from the serial thread to
// region threads so every thread of a run executes on the same tier.
func (t *Thread) CompiledTier() *Compiled { return t.cp }

// stepClassic is the classic switch-dispatch interpreter loop.
func (t *Thread) stepClassic(quantum int, maxCyc int64) Status {
	sys := t.Sys
	costs := t.costs
	proc := t.Proc
	start := sys.Clock(proc)
	var cyc, instrs int64
	status := Running

loop:
	for n := 0; n < quantum; n++ {
		instrs++
		if n&15 == 0 && sys.Clock(proc)+cyc-start >= maxCyc {
			break loop
		}
		if len(t.frames) == 0 {
			status = Done
			break loop
		}
		f := &t.frames[len(t.frames)-1]
		code := f.fn.Code
		r := f.regs
		if f.pc >= len(code) {
			status = t.trap(f, "fell off end of function")
			break loop
		}
		in := code[f.pc]
		f.pc++
		cyc += costs.tab[in.Op]
		switch in.Op {
		case Nop:
		case LdI:
			r[in.A] = in.Imm
		case Mov:
			r[in.A] = r[in.B]
		case Add:
			r[in.A] = r[in.B] + r[in.C]
		case Sub:
			r[in.A] = r[in.B] - r[in.C]
		case Mul:
			r[in.A] = r[in.B] * r[in.C]
		case DivI, FpDivI:
			if r[in.C] == 0 {
				status = t.trap(f, "integer division by zero")
				break loop
			}
			r[in.A] = r[in.B] / r[in.C]
			if in.Op == DivI {
				t.HwDiv++
			} else {
				t.SoftDiv++
			}
		case ModI, FpModI:
			if r[in.C] == 0 {
				status = t.trap(f, "integer modulo by zero")
				break loop
			}
			r[in.A] = r[in.B] % r[in.C]
			if in.Op == ModI {
				t.HwDiv++
			} else {
				t.SoftDiv++
			}
		case Neg:
			r[in.A] = -r[in.B]
		case NotL:
			if r[in.B] == 0 {
				r[in.A] = 1
			} else {
				r[in.A] = 0
			}
		case AddF:
			r[in.A] = fbits(ffrom(r[in.B]) + ffrom(r[in.C]))
		case SubF:
			r[in.A] = fbits(ffrom(r[in.B]) - ffrom(r[in.C]))
		case MulF:
			r[in.A] = fbits(ffrom(r[in.B]) * ffrom(r[in.C]))
		case DivF:
			r[in.A] = fbits(ffrom(r[in.B]) / ffrom(r[in.C]))
		case NegF:
			r[in.A] = fbits(-ffrom(r[in.B]))
		case CvtIF:
			r[in.A] = fbits(float64(r[in.B]))
		case CvtFI:
			r[in.A] = int64(ffrom(r[in.B]))
		case MinI:
			r[in.A] = min64(r[in.B], r[in.C])
		case MaxI:
			r[in.A] = max64(r[in.B], r[in.C])
		case MinF:
			r[in.A] = fbits(math.Min(ffrom(r[in.B]), ffrom(r[in.C])))
		case MaxF:
			r[in.A] = fbits(math.Max(ffrom(r[in.B]), ffrom(r[in.C])))
		case AbsI:
			v := r[in.B]
			if v < 0 {
				v = -v
			}
			r[in.A] = v
		case AbsF:
			r[in.A] = fbits(math.Abs(ffrom(r[in.B])))
		case SqrtF:
			r[in.A] = fbits(math.Sqrt(ffrom(r[in.B])))
		case CmpLt:
			r[in.A] = b2i(r[in.B] < r[in.C])
		case CmpLe:
			r[in.A] = b2i(r[in.B] <= r[in.C])
		case CmpEq:
			r[in.A] = b2i(r[in.B] == r[in.C])
		case CmpNe:
			r[in.A] = b2i(r[in.B] != r[in.C])
		case CmpLtF:
			r[in.A] = b2i(ffrom(r[in.B]) < ffrom(r[in.C]))
		case CmpLeF:
			r[in.A] = b2i(ffrom(r[in.B]) <= ffrom(r[in.C]))
		case CmpEqF:
			r[in.A] = b2i(ffrom(r[in.B]) == ffrom(r[in.C]))
		case CmpNeF:
			r[in.A] = b2i(ffrom(r[in.B]) != ffrom(r[in.C]))
		case Jmp:
			f.pc = int(in.A)
		case Bz:
			if r[in.A] == 0 {
				f.pc = int(in.C)
			}
		case Bnz:
			if r[in.A] != 0 {
				f.pc = int(in.C)
			}
		case Blt:
			if r[in.A] < r[in.B] {
				f.pc = int(in.C)
			}
		case Ble:
			if r[in.A] <= r[in.B] {
				f.pc = int(in.C)
			}
		case Bgt:
			if r[in.A] > r[in.B] {
				f.pc = int(in.C)
			}
		case Bge:
			if r[in.A] >= r[in.B] {
				f.pc = int(in.C)
			}
		case Beq:
			if r[in.A] == r[in.B] {
				f.pc = int(in.C)
			}
		case Bne:
			if r[in.A] != r[in.B] {
				f.pc = int(in.C)
			}
		case Ld:
			addr := r[in.B] + in.Imm
			if addr < 8 || addr >= sys.Brk() {
				status = t.trap(f, "load from invalid address %d", addr)
				break loop
			}
			// The clock must be current before the access: the memory
			// model's bandwidth windows read it.
			sys.AddCycles(proc, cyc)
			cyc = 0
			r[in.A] = int64(sys.LoadWord(proc, addr))
		case St:
			addr := r[in.B] + in.Imm
			if addr < 8 || addr >= sys.Brk() {
				status = t.trap(f, "store to invalid address %d", addr)
				break loop
			}
			sys.AddCycles(proc, cyc)
			cyc = 0
			sys.StoreWord(proc, addr, uint64(r[in.A]))
		case MyidOp:
			r[in.A] = int64(proc)
		case NprocsOp:
			r[in.A] = int64(sys.Cfg.NProcs)
		case SetArg:
			for len(f.outArgs) <= int(in.A) {
				f.outArgs = append(f.outArgs, 0)
			}
			f.outArgs[in.A] = r[in.B]
		case Call:
			if st := t.execCall(f, in); st != Running {
				status = st
				break loop
			}
		case GetArg:
			if int(in.B) >= len(f.args) {
				status = t.trap(f, "argument %d not supplied", in.B)
				break loop
			}
			r[in.A] = f.args[in.B]
		case Ret:
			if st := t.execRet(f); st != Running {
				status = st
				break loop
			}
		case ParCall:
			status = t.execParCall(f, in)
			break loop
		case RTC:
			if st := t.execRTC(f, in, &cyc); st != Running {
				status = st
				break loop
			}
		case Halt:
			status = Done
			break loop
		default:
			status = t.trap(f, "illegal opcode %v", in.Op)
			break loop
		}
	}
	sys.AddCycles(proc, cyc)
	t.Instrs += instrs
	return status
}

// The gated instructions — Call, Ret, ParCall, RTC — are factored into
// helpers shared by the classic interpreter and the compiled tier, so
// their semantics exist once. Each returns Running to continue or a final
// status (traps set t.Err through trap()).

// execCall performs a Call instruction: stage the out-args into a fresh
// argument vector and push the callee's frame.
func (t *Thread) execCall(f *frame, in Instr) Status {
	callee := t.Prog.Fns[in.Imm]
	nargs := int(in.C)
	args := t.getSlice(nargs)
	copy(args, f.outArgs[:nargs])
	if t.SP+callee.FrameBytes > t.StackEnd {
		return t.trap(f, "stack overflow calling %s", callee.Name)
	}
	if len(t.frames) > 200 {
		return t.trap(f, "call depth exceeded (recursion is not supported)")
	}
	t.push(callee, args)
	t.frames[len(t.frames)-1].ownArgs = true
	return Running
}

// execRet pops the current frame, recycling its buffers.
func (t *Thread) execRet(f *frame) Status {
	t.SP = f.savedSP
	t.putSlice(f.regs)
	t.putSlice(f.outArgs)
	if f.ownArgs {
		t.putSlice(f.args)
	}
	t.frames = t.frames[:len(t.frames)-1]
	if len(t.frames) == 0 {
		return Done
	}
	return Running
}

// execParCall records the pending parallel region and suspends the thread.
func (t *Thread) execParCall(f *frame, in Instr) Status {
	t.ParFn = int(in.Imm)
	t.ParArgs = make([]int64, in.C)
	copy(t.ParArgs, f.regs[in.A:int(in.A)+int(in.C)])
	return AtParCall
}

// execRTC flushes the pending cycles (the runtime reads the clock) and
// dispatches a runtime call. The argument vector is freshly allocated, not
// pooled: runtime implementations may retain it.
func (t *Thread) execRTC(f *frame, in Instr, cyc *int64) Status {
	nargs := int(in.C)
	args := make([]int64, nargs)
	copy(args, f.regs[in.B:int(in.B)+nargs])
	t.Sys.AddCycles(t.Proc, *cyc)
	*cyc = 0
	res, err := t.RT.RTCall(t, int(in.A), args)
	if err == ErrBarrier {
		f.regs[in.B] = 0
		return AtBarrier
	}
	if err != nil {
		t.Err = err
		return Done
	}
	f.regs[in.B] = res
	return Running
}

func ffrom(bits int64) float64 { return math.Float64frombits(uint64(bits)) }
func fbits(v float64) int64    { return int64(math.Float64bits(v)) }

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
