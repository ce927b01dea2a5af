package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"testing"
	"time"

	"dsmdist/internal/core"
	"dsmdist/internal/hostpool"
	"dsmdist/internal/workloads"
)

func transposeReq() *JobRequest {
	return &JobRequest{
		Sources: map[string]string{"t.f": workloads.Transpose(16, 1, workloads.Reshaped)},
		Machine: "tiny",
		Procs:   2,
	}
}

// fakeReq builds a valid request whose job key is unique to (tenant, n);
// used with the runJob test hook, so the sources never reach a compiler.
func fakeReq(tenant string, n int) *JobRequest {
	return &JobRequest{
		Sources: map[string]string{"x.f": fmt.Sprintf("job %s/%d", tenant, n)},
		Machine: "tiny",
		Tenant:  tenant,
	}
}

func waitDone(t *testing.T, s *Server, j *Job) {
	t.Helper()
	select {
	case <-s.Done(j):
	case <-time.After(30 * time.Second):
		t.Fatalf("job %s never finished", j.ID)
	}
}

// waitStats polls the server counters until cond holds.
func waitStats(t *testing.T, s *Server, cond func(Stats) bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond(s.ServerStats()) {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("server never reached expected state: %+v", s.ServerStats())
}

// TestServerResultCacheAndRestart is the service's core contract: the first
// submission simulates, every identical later one — same server or a fresh
// server over the same store directory — is served byte-identical from the
// content-addressed cache with no simulation executed.
func TestServerResultCacheAndRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("simulator run")
	}
	dir := t.TempDir()
	store, err := OpenStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	srv := New(Options{Store: store})

	j1, attached, err := srv.Submit(transposeReq())
	if err != nil {
		t.Fatal(err)
	}
	if attached {
		t.Fatal("first submission reported as coalesced")
	}
	waitDone(t, srv, j1)
	if j1.State != StateDone || j1.Cached {
		t.Fatalf("first job: state=%s cached=%v err=%q", j1.State, j1.Cached, j1.Err)
	}
	var doc core.ResultDoc
	if err := json.Unmarshal(j1.Result, &doc); err != nil {
		t.Fatalf("result is not a ResultDoc: %v", err)
	}
	if doc.V != core.ResultDocVersion || doc.Cycles <= 0 || doc.Procs != 2 {
		t.Fatalf("bad result doc: v=%d cycles=%d procs=%d", doc.V, doc.Cycles, doc.Procs)
	}

	// Identical submission: served from the store, byte-identical, no new
	// simulation.
	j2, _, err := srv.Submit(transposeReq())
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, srv, j2)
	if !j2.Cached || j2.State != StateDone {
		t.Fatalf("second job not served from cache: state=%s cached=%v", j2.State, j2.Cached)
	}
	if !bytes.Equal(j1.Result, j2.Result) {
		t.Fatal("cached result document differs from the original")
	}
	if n := srv.Simulations(); n != 1 {
		t.Fatalf("simulations = %d, want 1 (second run must be a cache hit)", n)
	}
	if err := srv.Drain(); err != nil {
		t.Fatal(err)
	}

	// "Daemon restart": a new server over a reopened store directory.
	store2, err := OpenStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	srv2 := New(Options{Store: store2})
	j3, _, err := srv2.Submit(transposeReq())
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, srv2, j3)
	if !j3.Cached || !bytes.Equal(j3.Result, j1.Result) {
		t.Fatal("result did not survive the restart byte-identical")
	}
	if n := srv2.Simulations(); n != 0 {
		t.Fatalf("restarted server ran %d simulations, want 0", n)
	}
}

// TestTornStoredResultResimulated: a stored result file torn by a crash
// (truncated, or empty) is a miss — dropped and simulated again, the
// correct bytes served and re-stored — not a permanent empty 200.
func TestTornStoredResultResimulated(t *testing.T) {
	if testing.Short() {
		t.Skip("simulator run")
	}
	for name, tear := range map[string]func([]byte) []byte{
		"truncated": func(b []byte) []byte { return b[:len(b)/2] },
		"empty":     func([]byte) []byte { return nil },
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			store, err := OpenStore(dir, 0)
			if err != nil {
				t.Fatal(err)
			}
			srv := New(Options{Store: store})
			hs := httptest.NewServer(srv.Handler())
			cold, err := NewClient(hs.URL).Run(transposeReq())
			hs.Close()
			if err != nil {
				t.Fatal(err)
			}
			if err := srv.Drain(); err != nil {
				t.Fatal(err)
			}
			path := store.objPath(KindResult, cold.Key)
			if err := os.WriteFile(path, tear(cold.Result), 0o644); err != nil {
				t.Fatal(err)
			}

			store2, err := OpenStore(dir, 0)
			if err != nil {
				t.Fatal(err)
			}
			srv2 := New(Options{Store: store2})
			hs2 := httptest.NewServer(srv2.Handler())
			defer hs2.Close()
			view, err := NewClient(hs2.URL).Run(transposeReq())
			if err != nil {
				t.Fatal(err)
			}
			if view.Cached || !bytes.Equal(view.Result, cold.Result) {
				t.Fatalf("torn result resubmitted: cached=%v, byte-equal to the cold result=%v",
					view.Cached, bytes.Equal(view.Result, cold.Result))
			}
			if n := srv2.Simulations(); n != 1 {
				t.Fatalf("simulations = %d, want 1 (the torn result re-simulated)", n)
			}
			if onDisk, err := os.ReadFile(path); err != nil || !bytes.Equal(onDisk, cold.Result) {
				t.Fatalf("the re-simulated result was not stored over the torn file (%v)", err)
			}
		})
	}
}

// TestWriteJSONEncodeFailure: a response value that fails to encode is
// answered 500 with an error body, never a 200 with a truncated one.
func TestWriteJSONEncodeFailure(t *testing.T) {
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, math.Inf(1))
	var body struct {
		Error string `json:"error"`
	}
	if rec.Code != http.StatusInternalServerError || json.Unmarshal(rec.Body.Bytes(), &body) != nil || body.Error == "" {
		t.Fatalf("encode failure answered %d %q, want 500 with an error body", rec.Code, rec.Body)
	}
}

// TestServerCoalescing: N concurrent identical submissions run exactly one
// simulation — the rest attach to the in-flight job.
func TestServerCoalescing(t *testing.T) {
	release := make(chan struct{})
	srv := New(Options{
		runJob: func(j *Job) ([]byte, error) {
			<-release
			return []byte(`{"v":1}`), nil
		},
	})

	req := fakeReq("default", 0)
	first, attached, err := srv.Submit(req)
	if err != nil || attached {
		t.Fatalf("first submit: attached=%v err=%v", attached, err)
	}
	waitStats(t, srv, func(st Stats) bool { return st.Running == 1 })

	const n = 8
	for i := 0; i < n; i++ {
		j, att, err := srv.Submit(fakeReq("default", 0))
		if err != nil {
			t.Fatal(err)
		}
		if j != first || !att {
			t.Fatalf("submission %d did not coalesce onto the in-flight job", i)
		}
	}
	close(release)
	waitDone(t, srv, first)
	if first.State != StateDone || first.Coalesced != n {
		t.Fatalf("state=%s coalesced=%d, want done/%d", first.State, first.Coalesced, n)
	}
	if sims := srv.Simulations(); sims != 1 {
		t.Fatalf("simulations = %d, want exactly 1 for %d identical submissions", sims, n+1)
	}
}

// TestServerTenantLimit: mixed-tenant submissions never exceed the
// per-tenant running cap, and both tenants make progress side by side.
func TestServerTenantLimit(t *testing.T) {
	prev := hostpool.SetBudget(16)
	defer hostpool.SetBudget(prev)

	block := make(chan struct{})
	srv := New(Options{
		TenantLimit: 2,
		runJob: func(j *Job) ([]byte, error) {
			<-block
			return []byte(`{"v":1}`), nil
		},
	})

	var jobs []*Job
	for _, tenant := range []string{"a", "b"} {
		for i := 0; i < 6; i++ {
			j, _, err := srv.Submit(fakeReq(tenant, i))
			if err != nil {
				t.Fatal(err)
			}
			jobs = append(jobs, j)
		}
	}

	// Steady state under blocked jobs: exactly the cap running per tenant.
	waitStats(t, srv, func(st Stats) bool { return st.Running == 4 })
	srv.mu.Lock()
	a, b := srv.tenantRunning["a"], srv.tenantRunning["b"]
	srv.mu.Unlock()
	if a != 2 || b != 2 {
		t.Fatalf("running per tenant a=%d b=%d, want 2/2 (limit 2)", a, b)
	}

	// Drain through: the limit must hold for every later wave too.
	close(block)
	for _, j := range jobs {
		waitDone(t, srv, j)
		if j.State != StateDone {
			t.Fatalf("job %s: state=%s err=%q", j.ID, j.State, j.Err)
		}
	}
	if sims := srv.Simulations(); sims != int64(len(jobs)) {
		t.Fatalf("simulations = %d, want %d distinct jobs", sims, len(jobs))
	}
	if hostpool.InUse() != 0 {
		t.Fatalf("hostpool workers leaked: %d in use", hostpool.InUse())
	}
}

// TestServerQueueFull: a full queue rejects with ErrQueueFull; admitted
// jobs still finish.
func TestServerQueueFull(t *testing.T) {
	release := make(chan struct{})
	srv := New(Options{
		MaxQueue:    1,
		TenantLimit: 1,
		runJob: func(j *Job) ([]byte, error) {
			<-release
			return []byte(`{"v":1}`), nil
		},
	})
	j1, _, err := srv.Submit(fakeReq("t", 1)) // runs
	if err != nil {
		t.Fatal(err)
	}
	waitStats(t, srv, func(st Stats) bool { return st.Running == 1 })
	j2, _, err := srv.Submit(fakeReq("t", 2)) // queued (tenant limit 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := srv.Submit(fakeReq("t", 3)); err != ErrQueueFull {
		t.Fatalf("third submit: err=%v, want ErrQueueFull", err)
	}
	close(release)
	waitDone(t, srv, j1)
	waitDone(t, srv, j2)
}

// TestServerDrain: Drain blocks until every admitted (running and queued)
// job has finished, and later submissions are refused.
func TestServerDrain(t *testing.T) {
	srv := New(Options{
		TenantLimit: 1,
		runJob: func(j *Job) ([]byte, error) {
			time.Sleep(5 * time.Millisecond)
			return []byte(`{"v":1}`), nil
		},
	})
	var jobs []*Job
	for i := 0; i < 4; i++ { // limit 1: three of these sit in the queue
		j, _, err := srv.Submit(fakeReq("t", i))
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	if err := srv.Drain(); err != nil {
		t.Fatal(err)
	}
	for _, j := range jobs {
		select {
		case <-srv.Done(j):
		default:
			t.Fatalf("Drain returned with job %s unfinished (state %s)", j.ID, j.State)
		}
		if j.State != StateDone {
			t.Fatalf("job %s drained in state %s", j.ID, j.State)
		}
	}
	if _, _, err := srv.Submit(fakeReq("t", 99)); err != ErrDraining {
		t.Fatalf("post-drain submit: err=%v, want ErrDraining", err)
	}
}

// TestServerValidation: bad requests are rejected at submission, never
// queued to fail later.
func TestServerValidation(t *testing.T) {
	srv := New(Options{})
	bad := []*JobRequest{
		{},
		{Sources: map[string]string{"x.f": "p"}, Machine: "cray"},
		{Sources: map[string]string{"x.f": "p"}, Procs: -1},
		{Sources: map[string]string{"x.f": "p"}, Policy: "random"},
		{Sources: map[string]string{"x.f": "p"}, Opt: "O9"},
		{Sources: map[string]string{"x.f": "p"}, Quantum: -5},
	}
	for i, req := range bad {
		if _, _, err := srv.Submit(req); err == nil {
			t.Errorf("bad request %d was admitted", i)
		}
	}
}

// BenchmarkWarmHit times the warm path end to end: Client.Run of a job
// whose result the store holds, over a loopback HTTP server — request
// encode, validate, JobKey, Store.Get, view write, response decode.
func BenchmarkWarmHit(b *testing.B) {
	store, err := OpenStore(b.TempDir(), 0)
	if err != nil {
		b.Fatal(err)
	}
	srv := New(Options{Store: store})
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	cli := NewClient(hs.URL)
	if _, err := cli.Run(transposeReq()); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for b.Loop() {
		if view, err := cli.Run(transposeReq()); err != nil || !view.Cached {
			b.Fatalf("warm Run: cached=%v err=%v", view != nil && view.Cached, err)
		}
	}
}
