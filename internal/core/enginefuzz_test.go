package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"dsmdist/internal/exec"
	"dsmdist/internal/machine"
	"dsmdist/internal/obs"
	"dsmdist/internal/ospage"
)

// The engine fuzz harness: seeded random programs over doacross nests,
// distribution specs, schedule types, explicit barriers, and redistributes,
// each run under the serial and the parallel engine and compared
// bit-for-bit — per-processor stats, cycles, operation counters, the
// profiler's region breakdown, and final array contents. Any divergence is
// an engine bug by definition (the parallel engine's contract is exact
// serial semantics).

// fuzzSpecs are the distribution specs the generator draws from (the empty
// spec leaves the array under the run's page policy).
var fuzzSpecs = []string{"", "(*, block)", "(block, *)", "(cyclic(4), *)", "(*, cyclic(2))"}

// fuzzScheds are schedule-type clauses; dynamic and gss go through
// RTDynGrab, which the speculative engine must handle via serial fallback.
var fuzzScheds = []string{"", " schedtype(simple)", " schedtype(dynamic, 2)",
	" schedtype(interleave, 3)", " schedtype(gss)"}

// genProgram emits a random-but-valid Fortran program from composable
// fragments. Everything is driven by rng so a seed fully determines the
// program.
func genProgram(rng *rand.Rand) string {
	n := []int{24, 32, 40}[rng.Intn(3)]
	var b strings.Builder
	fmt.Fprintf(&b, "      program fz\n      integer n\n      parameter (n = %d)\n", n)
	b.WriteString("      real*8 a(n, n), b(n, n), c(n)\n")
	aSpec := fuzzSpecs[rng.Intn(len(fuzzSpecs))]
	if aSpec != "" {
		fmt.Fprintf(&b, "c$distribute a%s\n", aSpec)
	}
	if sp := fuzzSpecs[rng.Intn(len(fuzzSpecs))]; sp != "" {
		fmt.Fprintf(&b, "c$distribute b%s\n", sp)
	}
	b.WriteString("      integer i, j\n")

	// Always initialize a with a nested doacross.
	aff := ""
	if rng.Intn(2) == 0 {
		aff = " affinity(j, i) = data(a(i, j))"
	}
	fmt.Fprintf(&b, `c$doacross nest(j, i) local(i, j) shared(a)%s
      do j = 1, n
        do i = 1, n
          a(i, j) = dble(i) * %d.0d-1 + dble(j)
        end do
      end do
`, aff, 1+rng.Intn(9))

	frags := 3 + rng.Intn(3)
	for f := 0; f < frags; f++ {
		switch rng.Intn(5) {
		case 0: // column sweep over a, random schedule or affinity
			clause := fuzzScheds[rng.Intn(len(fuzzScheds))]
			if clause == "" && rng.Intn(2) == 0 {
				clause = " affinity(j) = data(a(1, j))"
			}
			fmt.Fprintf(&b, `c$doacross local(i, j) shared(a)%s
      do j = 1, n
        do i = 2, n
          a(i, j) = a(i, j) + a(i-1, j) * %d.0d-1
        end do
      end do
`, clause, 1+rng.Intn(5))
		case 1: // redistribute a (only a distributed array may be)
			to := []string{"(*, block)", "(block, *)", "(cyclic(4), *)"}[rng.Intn(3)]
			if aSpec != "" {
				fmt.Fprintf(&b, "c$redistribute a%s\n", to)
			}
		case 2: // explicit barrier with a cross-processor read
			fmt.Fprintf(&b, `c$doacross local(i) shared(c)
      do i = 1, n
        c(i) = dble(mod(i * %d, 17)) / dble(i)
        call dsm_barrier
        c(i) = c(i) + c(mod(i, n) + 1) * 0.5
      end do
`, 3+rng.Intn(7))
		case 3: // serial interlude (integer divide exercises op counters)
			fmt.Fprintf(&b, `      do i = 1, n
        c(i) = c(i) + dble(i / %d)
      end do
`, 2+rng.Intn(5))
		case 4: // b update reading a
			fmt.Fprintf(&b, `c$doacross local(i, j) shared(a, b)%s
      do j = 1, n
        do i = 1, n
          b(i, j) = a(i, j) + b(i, j) * %d.0d-1
        end do
      end do
`, fuzzScheds[rng.Intn(len(fuzzScheds))], 1+rng.Intn(5))
		}
	}
	b.WriteString("      end\n")
	return b.String()
}

// fuzzRun executes src under one engine and returns everything the
// equivalence check compares.
func fuzzRun(t *testing.T, src string, np int, eng exec.Engine) (*exec.Result, []byte, [][]float64) {
	return fuzzRunTier(t, src, np, eng, exec.TierAuto)
}

// fuzzRunMem is fuzzRun with the memory-run batching switch pinned
// ("on" or "off"); memsim reads DSM_MEMRUN at System construction.
func fuzzRunMem(t *testing.T, src string, np int, eng exec.Engine, memrun string) (*exec.Result, []byte, [][]float64) {
	t.Setenv("DSM_MEMRUN", memrun)
	return fuzzRunTier(t, src, np, eng, exec.TierAuto)
}

// fuzzRunTier is fuzzRun with an explicit execution tier (the tier fuzz
// harness pins both tiers; TierAuto is the compiled tier).
func fuzzRunTier(t *testing.T, src string, np int, eng exec.Engine, tier exec.Tier) (*exec.Result, []byte, [][]float64) {
	t.Helper()
	tc := New()
	tc.RuntimeChecks = false
	image, err := tc.Build(map[string]string{"fz.f": src})
	if err != nil {
		t.Fatalf("build: %v\n%s", err, src)
	}
	cfg := machine.Tiny(np)
	rec := obs.NewRecorder(cfg)
	res, err := Run(image, cfg, RunOptions{
		Policy: ospage.FirstTouch, Rec: rec, Engine: eng, Workers: 4, Tier: tier})
	if err != nil {
		t.Fatalf("%v engine %v tier P=%d: %v\n%s", eng, tier, np, err, src)
	}
	var sum bytes.Buffer
	if err := rec.Summarize(10).WriteJSON(&sum); err != nil {
		t.Fatal(err)
	}
	var arrays [][]float64
	for _, name := range []string{"a", "b", "c"} {
		v, err := Array(res, "fz", name)
		if err != nil {
			t.Fatal(err)
		}
		arrays = append(arrays, v)
	}
	return res, sum.Bytes(), arrays
}

// TestEngineFuzzSerialVsParallel is the randomized equivalence harness.
func TestEngineFuzzSerialVsParallel(t *testing.T) {
	seeds := []int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}
	procs := []int{1, 4, 16, 96}
	if testing.Short() {
		seeds = seeds[:6]
		procs = []int{1, 4, 16}
	}
	// Scout-path coverage: how many epochs the parallel runs speculated.
	// The speculation governor trades these away on programs that keep
	// falling back (the seed list was doubled when it went in, to keep the
	// total where it was); if either count reaches zero the harness has
	// stopped testing the path it exists for.
	var committed, fallback, skipped int64
	defer func() {
		t.Logf("speculated epochs: %d committed + %d fallback (%d sat out)", committed, fallback, skipped)
		if committed == 0 || fallback == 0 {
			t.Errorf("scout path not exercised (%d committed, %d fallback): add seeds", committed, fallback)
		}
	}()
	for _, seed := range seeds {
		src := genProgram(rand.New(rand.NewSource(seed)))
		for _, np := range procs {
			// The memory-run batch is a host optimization with the same
			// contract as the engines: toggling it may not move a simulated
			// cycle. Fuzz both settings, and pin serial/memrun-on as the
			// single reference every other combination must match.
			var ref *exec.Result
			var refSum []byte
			var refArr [][]float64
			for _, memrun := range []string{"on", "off"} {
				s, ssum, sarr := fuzzRunMem(t, src, np, exec.EngineSerial, memrun)
				p, psum, parr := fuzzRunMem(t, src, np, exec.EngineParallel, memrun)
				committed += p.EpochsCommitted
				fallback += p.EpochsFallback
				skipped += p.EpochsSkipped
				if ref == nil {
					ref, refSum, refArr = s, ssum, sarr
				}
				for _, run := range []struct {
					eng string
					r   *exec.Result
					sum []byte
					arr [][]float64
				}{{"serial", s, ssum, sarr}, {"parallel", p, psum, parr}} {
					label := fmt.Sprintf("seed=%d P=%d engine=%s memrun=%s", seed, np, run.eng, memrun)
					if ref.Cycles != run.r.Cycles {
						t.Errorf("%s: cycles %d vs %d\n%s", label, ref.Cycles, run.r.Cycles, src)
						continue
					}
					if !reflect.DeepEqual(ref.Stats, run.r.Stats) || ref.Total != run.r.Total {
						t.Errorf("%s: proc stats diverge\n%s", label, src)
					}
					if ref.HwDiv != run.r.HwDiv || ref.SoftDiv != run.r.SoftDiv || ref.Instrs != run.r.Instrs {
						t.Errorf("%s: op counters diverge\n%s", label, src)
					}
					if !bytes.Equal(refSum, run.sum) {
						t.Errorf("%s: region breakdowns diverge\n%s", label, src)
					}
					if !reflect.DeepEqual(refArr, run.arr) {
						t.Errorf("%s: final array contents diverge\n%s", label, src)
					}
				}
			}
		}
	}
}
