package experiments

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dsmdist/internal/hostpool"
)

// TestForEachSharesHostBudget pins the shared-budget contract: ForEach's
// workers (caller included) never exceed the hostpool budget, and a nested
// Acquire from inside a job draws from the same pool instead of
// multiplying it.
func TestForEachSharesHostBudget(t *testing.T) {
	prev := hostpool.SetBudget(3)
	defer hostpool.SetBudget(prev)

	var cur, peak atomic.Int32
	var mu sync.Mutex
	err := ForEach(0, 12, func(i int) error {
		c := cur.Add(1)
		defer cur.Add(-1)
		mu.Lock()
		if c > peak.Load() {
			peak.Store(c)
		}
		mu.Unlock()
		// A nested draw must see the sweep's workers already charged
		// against the budget.
		extra := hostpool.Acquire(8)
		if got := int32(extra) + cur.Load(); got > 3 {
			hostpool.Release(extra)
			t.Errorf("job %d: %d workers live against budget 3", i, got)
			return nil
		}
		time.Sleep(time.Millisecond)
		hostpool.Release(extra)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p < 1 || p > 3 {
		t.Fatalf("peak concurrent jobs %d, budget 3", p)
	}
	if hostpool.InUse() != 0 {
		t.Fatalf("budget not returned: %d still in use", hostpool.InUse())
	}
}

// TestForEachParOneStaysSerial pins par=1 as strictly serial regardless of
// budget.
func TestForEachParOneStaysSerial(t *testing.T) {
	prev := hostpool.SetBudget(8)
	defer hostpool.SetBudget(prev)
	var cur, peak atomic.Int32
	_ = ForEach(1, 6, func(i int) error {
		c := cur.Add(1)
		defer cur.Add(-1)
		if c > peak.Load() {
			peak.Store(c)
		}
		return nil
	})
	if peak.Load() != 1 {
		t.Fatalf("par=1 ran %d jobs concurrently", peak.Load())
	}
}
