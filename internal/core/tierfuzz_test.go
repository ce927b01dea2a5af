package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"dsmdist/internal/exec"
)

// The tier fuzz harness: the same seeded random programs as the memory-run
// fuzz (doacross nests, distribution specs, schedule types, barriers,
// redistributes), each run under the classic interpreter and the
// block-compiled tier and compared bit-for-bit. The compiled tier's
// contract is exact classic semantics — identical charged cycles, stats,
// operation counters, region breakdowns, and final array contents — so
// any divergence is a compiler/trampoline bug by definition.
func TestTierFuzzClassicVsCompiled(t *testing.T) {
	seeds := []int64{1, 2, 3, 4, 5, 6}
	procs := []int{1, 4, 16, 96}
	if testing.Short() {
		seeds = seeds[:3]
		procs = []int{1, 4, 16}
	}
	for _, seed := range seeds {
		src := genProgram(rand.New(rand.NewSource(seed)))
		for _, np := range procs {
			// Alternate the memory-run batch by seed so the classic
			// word loop stays the reference against the compiled tier's
			// fused run members with batching both enabled and disabled
			// (TestMemRunFuzz covers the on/off pair at fixed tier).
			memrun := []string{"on", "off"}[seed%2]
			t.Setenv("DSM_MEMRUN", memrun)
			c, csum, carr := fuzzRunTier(t, src, np, exec.TierClassic)
			k, ksum, karr := fuzzRunTier(t, src, np, exec.TierCompiled)
			label := fmt.Sprintf("seed=%d P=%d memrun=%s", seed, np, memrun)
			if c.Cycles != k.Cycles {
				t.Errorf("%s: cycles %d vs %d\n%s", label, c.Cycles, k.Cycles, src)
				continue
			}
			if !reflect.DeepEqual(c.Stats, k.Stats) || c.Total != k.Total {
				t.Errorf("%s: proc stats diverge\n%s", label, src)
			}
			if c.HwDiv != k.HwDiv || c.SoftDiv != k.SoftDiv || c.Instrs != k.Instrs {
				t.Errorf("%s: op counters diverge (hw %d/%d soft %d/%d instrs %d/%d)\n%s",
					label, c.HwDiv, k.HwDiv, c.SoftDiv, k.SoftDiv, c.Instrs, k.Instrs, src)
			}
			if !bytes.Equal(csum, ksum) {
				t.Errorf("%s: region breakdowns diverge\n%s", label, src)
			}
			if !reflect.DeepEqual(carr, karr) {
				t.Errorf("%s: final array contents diverge\n%s", label, src)
			}
		}
	}
}
