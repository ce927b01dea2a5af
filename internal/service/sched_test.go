// Scheduler × hostpool interaction. The pool is consulted outside the
// server mutex (its own lock; coupling the two invites inversions), and a
// dry pool must degrade to serial progress — the first running job rides
// the server's implicit worker and needs no grant — never to a wedged
// queue.
package service

import (
	"strings"
	"sync"
	"testing"

	"dsmdist/internal/hostpool"
)

// runCounted returns a runJob hook tracking peak concurrency.
func runCounted(mu *sync.Mutex, cur, peak *int, gate chan struct{}) func(*Job) ([]byte, error) {
	return func(j *Job) ([]byte, error) {
		mu.Lock()
		*cur++
		if *cur > *peak {
			*peak = *cur
		}
		mu.Unlock()
		if gate != nil {
			<-gate
		}
		mu.Lock()
		*cur--
		mu.Unlock()
		return []byte(`{"v":1}`), nil
	}
}

// TestSchedulerDryHostpool: with a budget of 1 the pool never grants a
// second worker (Acquire keeps one slot for the caller), so distinct jobs
// must run strictly serially — and all of them must still complete.
func TestSchedulerDryHostpool(t *testing.T) {
	prev := hostpool.SetBudget(1)
	defer hostpool.SetBudget(prev)

	var mu sync.Mutex
	var cur, peak int
	srv := New(Options{TenantLimit: 8, runJob: runCounted(&mu, &cur, &peak, nil)})

	var jobs []*Job
	for i := 0; i < 6; i++ {
		j, _, err := srv.Submit(fakeReq("t", i))
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	for _, j := range jobs {
		waitDone(t, srv, j)
		if j.State != StateDone {
			t.Fatalf("job %s: state=%s err=%q", j.ID, j.State, j.Err)
		}
	}
	mu.Lock()
	got := peak
	mu.Unlock()
	if got != 1 {
		t.Fatalf("peak concurrency = %d on a dry pool, want 1", got)
	}
	if hostpool.InUse() != 0 {
		t.Fatalf("hostpool workers leaked: %d in use", hostpool.InUse())
	}
}

// TestSchedulerPoolDrawnDownExternally: a colocated consumer (a local
// sweep) holding the entire budget must not wedge the service — jobs keep
// completing one at a time, and the pool is untouched when they finish.
func TestSchedulerPoolDrawnDownExternally(t *testing.T) {
	prev := hostpool.SetBudget(4)
	defer hostpool.SetBudget(prev)
	grant := hostpool.Acquire(3) // all that budget 4 offers (one slot stays with the caller)
	if grant != 3 {
		hostpool.Release(grant)
		t.Fatalf("setup: acquired %d of 3", grant)
	}
	defer hostpool.Release(grant)

	var mu sync.Mutex
	var cur, peak int
	gate := make(chan struct{})
	srv := New(Options{TenantLimit: 8, runJob: runCounted(&mu, &cur, &peak, gate)})

	var jobs []*Job
	for i := 0; i < 4; i++ {
		j, _, err := srv.Submit(fakeReq("t", i))
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	// Exactly one job can be running; release them through one by one.
	waitStats(t, srv, func(st Stats) bool { return st.Running == 1 })
	for range jobs {
		gate <- struct{}{}
	}
	for _, j := range jobs {
		waitDone(t, srv, j)
		if j.State != StateDone {
			t.Fatalf("job %s: state=%s err=%q", j.ID, j.State, j.Err)
		}
	}
	mu.Lock()
	got := peak
	mu.Unlock()
	if got != 1 {
		t.Fatalf("peak concurrency = %d with the pool drawn down, want 1", got)
	}
	if hostpool.InUse() != 3 {
		t.Fatalf("hostpool in use = %d, want the external grant of 3 only", hostpool.InUse())
	}
}

// TestJobPanicFailsOneJob: a panic inside a job's build-and-simulate step
// fails that job with the panic text, releases its hostpool grant, and
// leaves the scheduler running the jobs beside and behind it.
func TestJobPanicFailsOneJob(t *testing.T) {
	prev := hostpool.SetBudget(4)
	defer hostpool.SetBudget(prev)

	release := make(chan struct{})
	srv := New(Options{TenantLimit: 8, runJob: func(j *Job) ([]byte, error) {
		if strings.HasSuffix(j.spec.Sources["x.f"], "/1") {
			panic("index out of range [7] with length 3")
		}
		<-release
		return []byte(`{"v":1}`), nil
	}})
	submit := func(n int) *Job {
		j, _, err := srv.Submit(fakeReq("t", n))
		if err != nil {
			t.Fatal(err)
		}
		return j
	}
	// The first job holds the server's implicit worker, so the panicking
	// one runs beside it on a pool grant — the grant a panic would leak.
	beside := submit(0)
	waitStats(t, srv, func(st Stats) bool { return st.Running == 1 })
	bad := submit(1)
	waitDone(t, srv, bad)
	if bad.State != StateFailed || !strings.Contains(bad.Err, "index out of range [7]") {
		t.Fatalf("panicking job: state=%s err=%q, want failed with the panic text", bad.State, bad.Err)
	}
	close(release)
	for _, j := range []*Job{beside, submit(2)} {
		waitDone(t, srv, j)
		if j.State != StateDone {
			t.Fatalf("job %s: state=%s err=%q", j.ID, j.State, j.Err)
		}
	}
	if hostpool.InUse() != 0 {
		t.Fatalf("hostpool workers leaked across a panic: %d in use", hostpool.InUse())
	}
}

// TestOversizedImageFailsOneJob: a 200-byte job whose array cannot fit the
// host used to end the daemon with the runtime's "out of memory" throw,
// which no recover() sees. The loader now knows the footprint before it
// allocates, so the job fails with a load error — and so does one whose
// extents overflow, at compile time — while the jobs behind them run.
func TestOversizedImageFailsOneJob(t *testing.T) {
	if testing.Short() {
		t.Skip("simulator run")
	}
	prev := hostpool.SetBudget(4)
	defer hostpool.SetBudget(prev)

	srv := New(Options{})
	submit := func(decl string) *Job {
		elem := "x(1" + strings.Repeat(",1", strings.Count(decl, ",")) + ")"
		j, _, err := srv.Submit(&JobRequest{
			Sources: map[string]string{"big.f": "      program big\n      real*8 " + decl + "\n      " + elem + " = 1.0\n      end\n"},
			Machine: "tiny",
			Procs:   2,
		})
		if err != nil {
			t.Fatal(err)
		}
		return j
	}
	for decl, want := range map[string]string{
		"x(2000000000)":              "rtl: image needs 16000",
		"x(3000000,3000000,3000000)": "overflow",
	} {
		bad := submit(decl)
		waitDone(t, srv, bad)
		if bad.State != StateFailed || !strings.Contains(bad.Err, want) || strings.Contains(bad.Err, "panicked") {
			t.Fatalf("%s: state=%s err=%q, want failed with %q", decl, bad.State, bad.Err, want)
		}
	}
	ok := submit("x(2000)")
	waitDone(t, srv, ok)
	if ok.State != StateDone {
		t.Fatalf("job behind the oversized ones: state=%s err=%q", ok.State, ok.Err)
	}
	if hostpool.InUse() != 0 {
		t.Fatalf("hostpool workers leaked across a failed load: %d in use", hostpool.InUse())
	}
	if st := srv.ServerStats(); st.Running != 0 || st.Queued != 0 {
		t.Fatalf("server not idle after the jobs: %+v", st)
	}
}
