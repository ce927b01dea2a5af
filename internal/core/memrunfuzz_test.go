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

// The memory-run fuzz harness: seeded random programs over doacross nests,
// distribution specs, schedule types, explicit barriers, and redistributes,
// each run with memsim's run-batched fast path on and off and compared
// bit-for-bit — per-processor stats, cycles, operation counters, the
// profiler's region breakdown, and final array contents. Any divergence is
// a batching bug by definition (the batch's contract is exact word-loop
// semantics).

// fuzzSpecs are the distribution specs the generator draws from (the empty
// spec leaves the array under the run's page policy).
var fuzzSpecs = []string{"", "(*, block)", "(block, *)", "(cyclic(4), *)", "(*, cyclic(2))"}

// fuzzScheds are schedule-type clauses; dynamic and gss go through
// RTDynGrab.
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

// fuzzRunMem executes src with the memory-run batching switch pinned ("on"
// or "off"; memsim reads DSM_MEMRUN at System construction) and returns
// everything the equivalence check compares.
func fuzzRunMem(t *testing.T, src string, np int, memrun string) (*exec.Result, []byte, [][]float64) {
	t.Setenv("DSM_MEMRUN", memrun)
	return fuzzRunTier(t, src, np, exec.TierAuto)
}

// fuzzRunTier runs src on an explicit execution tier (the tier fuzz
// harness pins both tiers; TierAuto is the compiled tier).
func fuzzRunTier(t *testing.T, src string, np int, tier exec.Tier) (*exec.Result, []byte, [][]float64) {
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
		Policy: ospage.FirstTouch, Rec: rec, Tier: tier})
	if err != nil {
		t.Fatalf("%v tier P=%d: %v\n%s", tier, np, err, src)
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

// TestMemRunFuzz is the randomized equivalence harness: memrun off must
// reproduce memrun on in every simulated quantity.
func TestMemRunFuzz(t *testing.T) {
	seeds := []int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}
	procs := []int{1, 4, 16, 96}
	if testing.Short() {
		seeds = seeds[:6]
		procs = []int{1, 4, 16}
	}
	for _, seed := range seeds {
		src := genProgram(rand.New(rand.NewSource(seed)))
		for _, np := range procs {
			ref, refSum, refArr := fuzzRunMem(t, src, np, "on")
			r, sum, arr := fuzzRunMem(t, src, np, "off")
			label := fmt.Sprintf("seed=%d P=%d memrun=off", seed, np)
			if ref.Cycles != r.Cycles {
				t.Errorf("%s: cycles %d vs %d\n%s", label, ref.Cycles, r.Cycles, src)
				continue
			}
			if !reflect.DeepEqual(ref.Stats, r.Stats) || ref.Total != r.Total {
				t.Errorf("%s: proc stats diverge\n%s", label, src)
			}
			if ref.HwDiv != r.HwDiv || ref.SoftDiv != r.SoftDiv || ref.Instrs != r.Instrs {
				t.Errorf("%s: op counters diverge\n%s", label, src)
			}
			if !bytes.Equal(refSum, sum) {
				t.Errorf("%s: region breakdowns diverge\n%s", label, src)
			}
			if !reflect.DeepEqual(refArr, arr) {
				t.Errorf("%s: final array contents diverge\n%s", label, src)
			}
		}
	}
}
