// Package hostpool is the process-wide budget for *host* parallelism.
//
// Two parts of the harness run simulations side by side, one goroutine
// each: experiment sweeps (`experiments.ForEach`, dsmbench -par N, the
// advisor's candidate verification) and the dsmd job scheduler. Both draw
// *extra* workers from this single counting budget and fall back to doing
// the work on their own goroutine when the pool is dry, so a sweep and
// daemon jobs in one process never oversubscribe the host.
//
// The convention: every caller implicitly owns the goroutine it is already
// running on, so a budget of B means "at most B goroutines working at
// once" and Acquire hands out at most B-1 extras in total. Acquire never
// blocks and never fails — it grants between 0 and `want` workers, and the
// caller sizes its fan-out accordingly.
package hostpool

import (
	"runtime"
	"sync"
)

var (
	mu     sync.Mutex
	budget = runtime.GOMAXPROCS(0)
	inUse  int
	peak   int
)

// Acquire requests up to want extra workers and returns how many were
// granted (possibly 0). Every grant must be returned with Release.
func Acquire(want int) int {
	if want <= 0 {
		return 0
	}
	mu.Lock()
	defer mu.Unlock()
	avail := budget - 1 - inUse
	if avail <= 0 {
		return 0
	}
	if want > avail {
		want = avail
	}
	inUse += want
	if inUse > peak {
		peak = inUse
	}
	return want
}

// Release returns n previously granted workers to the pool.
func Release(n int) {
	if n <= 0 {
		return
	}
	mu.Lock()
	defer mu.Unlock()
	inUse -= n
	if inUse < 0 {
		panic("hostpool: Release without matching Acquire")
	}
}

// SetBudget sets the total worker budget (including the caller's own
// goroutine) and returns the previous value. Values < 1 are clamped to 1.
// Outstanding grants are unaffected; the new budget applies to future
// Acquires.
func SetBudget(n int) int {
	if n < 1 {
		n = 1
	}
	mu.Lock()
	defer mu.Unlock()
	prev := budget
	budget = n
	return prev
}

// Budget returns the current total budget.
func Budget() int {
	mu.Lock()
	defer mu.Unlock()
	return budget
}

// InUse returns the number of extra workers currently granted.
func InUse() int {
	mu.Lock()
	defer mu.Unlock()
	return inUse
}

// Peak returns the high-water mark of granted extras since the last
// ResetPeak. Peak+1 bounds the number of goroutines that were ever
// working concurrently (the +1 is the caller's own).
//
// Deprecated: kept only because the benchmark harness still reads it.
func Peak() int {
	mu.Lock()
	defer mu.Unlock()
	return peak
}

// ResetPeak clears the high-water mark (test hook).
//
// Deprecated: kept only because the benchmark harness still calls it.
func ResetPeak() {
	mu.Lock()
	defer mu.Unlock()
	peak = inUse
}
