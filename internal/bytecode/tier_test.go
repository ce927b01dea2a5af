package bytecode

import (
	"testing"

	"dsmdist/internal/machine"
	"dsmdist/internal/memsim"
	"dsmdist/internal/ospage"
)

// boundaryProg builds a long-running loop whose body mixes a bare run
// longer than the 16-instruction checkpoint window, memory traffic,
// divides, and branches — everything whose interaction with quantum and
// cycle-bound breaks the dispatch semantics contract pins down.
func boundaryProg(base int64, iters int64) *Program {
	code := []Instr{
		{Op: LdI, A: 1, Imm: 0},     // sum
		{Op: LdI, A: 2, Imm: 0},     // i
		{Op: LdI, A: 3, Imm: iters}, // n
		{Op: LdI, A: 4, Imm: 1},
		{Op: LdI, A: 5, Imm: base},
		// loop:
		{Op: Bge, A: 2, B: 3, C: 29}, // pc5: if i >= n goto done
	}
	// A bare run of 18 instructions (crosses one checkpoint boundary).
	for k := 0; k < 9; k++ {
		code = append(code,
			Instr{Op: Add, A: 6, B: 1, C: 2},
			Instr{Op: Mul, A: 6, B: 6, C: 4},
		)
	}
	code = append(code,
		Instr{Op: Ld, A: 7, B: 5, Imm: 0}, // pc24
		Instr{Op: Add, A: 1, B: 1, C: 7},  // pc25
		Instr{Op: St, A: 1, B: 5, Imm: 8}, // pc26
		Instr{Op: Add, A: 2, B: 2, C: 4},  // pc27: i++
		Instr{Op: Jmp, A: 5},              // pc28
		Instr{Op: Halt},                   // pc29: done
	)
	return prog1(8, code)
}

// newBoundaryThread builds an isolated machine plus one thread running
// boundaryProg, optionally on the compiled tier.
func newBoundaryThread(t *testing.T, compiled bool) *Thread {
	t.Helper()
	cfg := machine.Tiny(2)
	sys, err := memsim.New(cfg, ospage.New(cfg))
	if err != nil {
		t.Fatal(err)
	}
	costs := NewCosts(cfg)
	base := sys.Alloc(64, 8)
	sys.Poke(base, 3)
	prog := boundaryProg(base, 3000)
	stack := sys.Alloc(4096, 8)
	th := NewThread(0, sys, prog, &nopRT{}, costs, prog.Main, nil, stack, stack+4096)
	if compiled {
		th.UseCompiled(CompileProgram(prog, costs))
	}
	return th
}

// TestTierQuantumBoundaryIdentity locksteps the classic interpreter and
// the compiled tier through a schedule of quantum and cycle-bound values
// chosen to land breaks at every awkward spot — quanta that are not
// multiples of 16, tiny cycle bounds that trip the n&15 checkpoint
// mid-run, and unbounded steps — and demands identical break points:
// same status, same Instrs (including the classic loop's counting of the
// broken iteration), same clock, same pc, same call depth after every
// single StepCycles call.
func TestTierQuantumBoundaryIdentity(t *testing.T) {
	classic := newBoundaryThread(t, false)
	compiled := newBoundaryThread(t, true)

	quanta := []int{7, 16, 17, 100, 1000, 2000}
	bounds := []int64{33, 48, 64, 100, 250, 1 << 62}
	step := 0
	for {
		q := quanta[step%len(quanta)]
		m := bounds[step%len(bounds)]
		sc := classic.StepCycles(q, m)
		sk := compiled.StepCycles(q, m)
		if sc != sk {
			t.Fatalf("step %d (q=%d maxCyc=%d): status %v vs %v", step, q, m, sc, sk)
		}
		if classic.Instrs != compiled.Instrs {
			t.Fatalf("step %d (q=%d maxCyc=%d): instrs %d vs %d",
				step, q, m, classic.Instrs, compiled.Instrs)
		}
		if cc, kc := classic.Sys.Clock(0), compiled.Sys.Clock(0); cc != kc {
			t.Fatalf("step %d (q=%d maxCyc=%d): clock %d vs %d", step, q, m, cc, kc)
		}
		if classic.Depth() != compiled.Depth() {
			t.Fatalf("step %d: depth %d vs %d", step, classic.Depth(), compiled.Depth())
		}
		if classic.Depth() > 0 {
			cp := classic.frames[len(classic.frames)-1].pc
			kp := compiled.frames[len(compiled.frames)-1].pc
			if cp != kp {
				t.Fatalf("step %d (q=%d maxCyc=%d): pc %d vs %d", step, q, m, cp, kp)
			}
		}
		if sc == Done {
			if classic.Err != nil {
				t.Fatalf("classic error: %v", classic.Err)
			}
			if compiled.Err != nil {
				t.Fatalf("compiled error: %v", compiled.Err)
			}
			return
		}
		step++
		if step > 200000 {
			t.Fatal("did not terminate")
		}
	}
}

// TestTierTrapIdentity pins trap equivalence: same error message (same
// reported pc), same Instrs, same clock on a division by zero.
func TestTierTrapIdentity(t *testing.T) {
	mk := func(compiled bool) *Thread {
		cfg := machine.Tiny(2)
		sys, err := memsim.New(cfg, ospage.New(cfg))
		if err != nil {
			t.Fatal(err)
		}
		costs := NewCosts(cfg)
		code := []Instr{
			{Op: LdI, A: 1, Imm: 7},
			{Op: LdI, A: 2, Imm: 0},
			{Op: Add, A: 3, B: 1, C: 1},
			{Op: DivI, A: 3, B: 1, C: 2}, // divide by zero at pc 3
			{Op: Halt},
		}
		prog := prog1(8, code)
		stack := sys.Alloc(4096, 8)
		th := NewThread(0, sys, prog, &nopRT{}, costs, prog.Main, nil, stack, stack+4096)
		if compiled {
			th.UseCompiled(CompileProgram(prog, costs))
		}
		return th
	}
	classic, compiled := mk(false), mk(true)
	sc, sk := classic.Step(100), compiled.Step(100)
	if sc != Done || sk != Done {
		t.Fatalf("status %v vs %v", sc, sk)
	}
	if classic.Err == nil || compiled.Err == nil {
		t.Fatalf("expected traps, got %v vs %v", classic.Err, compiled.Err)
	}
	if classic.Err.Error() != compiled.Err.Error() {
		t.Fatalf("trap messages differ:\n  classic:  %v\n  compiled: %v", classic.Err, compiled.Err)
	}
	if classic.Instrs != compiled.Instrs {
		t.Fatalf("instrs %d vs %d", classic.Instrs, compiled.Instrs)
	}
	if cc, kc := classic.Sys.Clock(0), compiled.Sys.Clock(0); cc != kc {
		t.Fatalf("clock %d vs %d", cc, kc)
	}
}

// benchThread builds a thread running an endless compute loop (arith run,
// load, store, branch) for dispatch benchmarks.
func benchThread(b *testing.B, compiled bool) *Thread {
	b.Helper()
	cfg := machine.Tiny(1)
	sys, err := memsim.New(cfg, ospage.New(cfg))
	if err != nil {
		b.Fatal(err)
	}
	costs := NewCosts(cfg)
	base := sys.Alloc(64, 8)
	prog := boundaryProg(base, 1<<60)
	stack := sys.Alloc(4096, 8)
	th := NewThread(0, sys, prog, &nopRT{}, costs, prog.Main, nil, stack, stack+4096)
	if compiled {
		th.UseCompiled(CompileProgram(prog, costs))
	}
	return th
}

func benchStep(b *testing.B, compiled bool) {
	th := benchThread(b, compiled)
	const quantum = 2000
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if th.Step(quantum) != Running {
			b.Fatalf("unexpected stop: %v", th.Err)
		}
	}
	b.SetBytes(0)
	b.ReportMetric(float64(th.Instrs)/float64(b.Elapsed().Seconds())/1e6, "Minstrs/s")
}

func BenchmarkStepClassic(b *testing.B)  { benchStep(b, false) }
func BenchmarkStepCompiled(b *testing.B) { benchStep(b, true) }
