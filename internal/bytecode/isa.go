// Package bytecode defines the compiled form the simulator executes: a
// register bytecode for an R10000-like scalar core. Loads and stores run
// through the memsim memory hierarchy; arithmetic costs follow the
// machine.Config cycle model, including the paper's 35-cycle integer divide
// and the 11-cycle floating-point divide the §7.3 strength reduction
// targets (the FpDiv/FpMod opcodes are the "div/mod using floating-point
// arithmetic" the optimizer emits).
package bytecode

import "fmt"

// Op is an opcode.
type Op uint8

// Register convention: r0 is the frame pointer (base of the frame's
// addressed-scalar storage); r1.. are allocated by the code generator.
const FPReg = 0

const (
	Nop Op = iota

	// Constants and moves.
	LdI // R[A] = Imm (integer or raw float bits)
	Mov // R[A] = R[B]

	// Integer arithmetic: R[A] = R[B] op R[C].
	Add
	Sub
	Mul
	DivI // hardware integer divide (35 cycles, not pipelined)
	ModI
	FpDivI // integer divide simulated in the FP unit (§7.3)
	FpModI
	Neg  // R[A] = -R[B]
	NotL // R[A] = (R[B] == 0)

	// Float arithmetic (registers hold raw bits).
	AddF
	SubF
	MulF
	DivF
	NegF

	// Conversions.
	CvtIF // int -> float
	CvtFI // float -> int (truncate)

	// Intrinsics.
	MinI
	MaxI
	MinF
	MaxF
	AbsI
	AbsF
	SqrtF

	// Comparisons producing 0/1: R[A] = R[B] op R[C].
	CmpLt
	CmpLe
	CmpEq
	CmpNe
	CmpLtF
	CmpLeF
	CmpEqF
	CmpNeF

	// Control flow. Branch targets are absolute instruction indices in
	// the containing function.
	Jmp // pc = A
	Bz  // if R[A] == 0: pc = C
	Bnz // if R[A] != 0: pc = C
	// Fused compare-and-branch (the common loop exits): if R[A] op R[B]
	// then pc = C.
	Blt
	Ble
	Bgt
	Bge
	Beq
	Bne

	// Memory: address = R[B] + Imm bytes.
	Ld // R[A] = mem[R[B]+Imm]
	St // mem[R[B]+Imm] = R[A]

	// Parallel context.
	MyidOp   // R[A] = executing processor id (0 in serial code)
	NprocsOp // R[A] = processor count

	// Calls. Arguments are staged with SetArg, then Call transfers.
	SetArg // outArg[A] = R[B]
	Call   // invoke Fns[Imm] with C staged args
	GetArg // R[A] = incoming arg[B]
	Ret

	// ParCall suspends the thread so the executor can fan the region
	// function Fns[Imm] out to all processors; the C captured values
	// starting at R[A] become the region's incoming args.
	ParCall

	// RTC calls the runtime: id in A, C args starting at R[B]; the
	// result replaces R[B].
	RTC

	Halt
)

var opNames = [...]string{
	"nop", "ldi", "mov",
	"add", "sub", "mul", "divi", "modi", "fpdivi", "fpmodi", "neg", "notl",
	"addf", "subf", "mulf", "divf", "negf",
	"cvtif", "cvtfi",
	"mini", "maxi", "minf", "maxf", "absi", "absf", "sqrtf",
	"cmplt", "cmple", "cmpeq", "cmpne", "cmpltf", "cmplef", "cmpeqf", "cmpnef",
	"jmp", "bz", "bnz", "blt", "ble", "bgt", "bge", "beq", "bne",
	"ld", "st",
	"myid", "nprocs",
	"setarg", "call", "getarg", "ret",
	"parcall", "rtc", "halt",
}

func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", int(o))
}

// Instr is one instruction.
type Instr struct {
	Op      Op
	A, B, C int32
	Imm     int64
}

func (i Instr) String() string {
	return fmt.Sprintf("%-7s a=%d b=%d c=%d imm=%d", i.Op, i.A, i.B, i.C, i.Imm)
}

// Fn is one compiled function.
type Fn struct {
	Name       string
	Code       []Instr
	NRegs      int
	NArgs      int
	FrameBytes int64 // addressed-scalar storage reserved per activation
	IsRegion   bool  // doacross region body

	// MaxOutArgs is the out-arg buffer size this function needs (one past
	// the highest SetArg slot); the interpreter preallocates frames' out
	// buffers from it instead of growing on demand. Program.Finalize
	// computes it; 0 (old images, hand-built programs) falls back to the
	// grow-on-SetArg path.
	MaxOutArgs int

	// Source attribution (profiler): the file and line of the unit or,
	// for region functions, of the doacross directive that was outlined.
	File string
	Line int
}

// SymKind classifies data symbols.
type SymKind int

const (
	SymData SymKind = iota // array or addressed-scalar storage
	SymDesc                // distributed-array descriptor block
)

// DataSym is a statically allocated data object; Addr is patched by the
// loader after layout.
type DataSym struct {
	Name  string
	Kind  SymKind
	Bytes int64
	Align int64
	Addr  int64
}

// Reloc patches the Imm of Fns[Fn].Code[PC] to Syms[Sym].Addr + Addend.
type Reloc struct {
	Fn, PC int
	Sym    int
	Addend int64
}

// RTCall ids (the A operand of RTC).
const (
	RTBarrier    = iota // dsm_barrier()
	RTRedist            // args: plan id
	RTPortionLo         // args: array sym id, dim (1-based), proc -> 1-based lo
	RTPortionHi         // args: array sym id, dim, proc -> 1-based hi
	RTArgPush           // args: address, check id    (caller side, §6 checks)
	RTArgPop            // args: count
	RTArgCheck          // args: address, check id    (callee side)
	RTTimerStart        // region-of-interest timing: snapshot the clock
	RTTimerStop
	RTNestGrid   // args: ndims, dim -> processors along dim of the nest grid
	RTAllocStack // args: bytes -> base address of a stack-lifetime block
	RTDynGrab    // args: total, chunk, mode -> start*2^31 + len (len 0 = done)
)

// Program is a linked executable image.
type Program struct {
	Fns    []*Fn
	Main   int
	Syms   []*DataSym
	Relocs []Reloc
}

// Patch applies all relocations; the loader calls it after assigning
// symbol addresses.
func (p *Program) Patch() error {
	for _, r := range p.Relocs {
		if r.Fn >= len(p.Fns) || r.PC >= len(p.Fns[r.Fn].Code) {
			return fmt.Errorf("bytecode: bad reloc %+v", r)
		}
		if r.Sym >= len(p.Syms) {
			return fmt.Errorf("bytecode: reloc to unknown symbol %d", r.Sym)
		}
		s := p.Syms[r.Sym]
		if s.Addr == 0 {
			return fmt.Errorf("bytecode: symbol %s has no address", s.Name)
		}
		p.Fns[r.Fn].Code[r.PC].Imm = s.Addr + r.Addend
	}
	return nil
}

// Clone deep-copies the load-mutable state of the program: the loader
// assigns Syms addresses and Patch rewrites Code immediates in place, so a
// program served from a build cache must be cloned before every load. Relocs
// are immutable and stay shared.
func (p *Program) Clone() *Program {
	np := &Program{Main: p.Main, Relocs: p.Relocs}
	np.Fns = make([]*Fn, len(p.Fns))
	for i, f := range p.Fns {
		nf := *f
		nf.Code = append([]Instr(nil), f.Code...)
		np.Fns[i] = &nf
	}
	np.Syms = make([]*DataSym, len(p.Syms))
	for i, s := range p.Syms {
		ns := *s
		np.Syms[i] = &ns
	}
	return np
}

// Finalize computes derived per-function metadata (currently MaxOutArgs).
// The executor calls it once per loaded program before creating threads;
// it is idempotent and cheap (one scan of the code).
func (p *Program) Finalize() {
	for _, f := range p.Fns {
		if f.MaxOutArgs > 0 {
			continue
		}
		for _, in := range f.Code {
			if in.Op == SetArg && int(in.A)+1 > f.MaxOutArgs {
				f.MaxOutArgs = int(in.A) + 1
			}
		}
	}
}

// FindFn returns the index of the named function, or -1.
func (p *Program) FindFn(name string) int {
	for i, f := range p.Fns {
		if f.Name == name {
			return i
		}
	}
	return -1
}
