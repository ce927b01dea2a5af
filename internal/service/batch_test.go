package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"dsmdist/internal/hostpool"
)

// TestBatchWithinBatchCoalesce: duplicate elements of one batch attach to
// the first occurrence — one Job, one simulation, attached flags marking
// the duplicates.
func TestBatchWithinBatchCoalesce(t *testing.T) {
	srv := New(Options{
		runJob: func(j *Job) ([]byte, error) { return []byte(`{"v":1}`), nil },
	})
	batch := &BatchRequest{Jobs: []JobRequest{
		*fakeReq("t", 1), *fakeReq("t", 1), *fakeReq("t", 2),
	}}
	jobs, attached, err := srv.SubmitBatch(batch)
	if err != nil {
		t.Fatal(err)
	}
	if jobs[0] != jobs[1] || jobs[0] == jobs[2] {
		t.Fatal("duplicate element did not coalesce onto its twin")
	}
	want := []bool{false, true, false}
	for i := range want {
		if attached[i] != want[i] {
			t.Fatalf("attached = %v, want %v", attached, want)
		}
	}
	for _, j := range jobs {
		waitDone(t, srv, j)
	}
	if jobs[0].Coalesced != 1 {
		t.Fatalf("Coalesced = %d, want 1", jobs[0].Coalesced)
	}
	if sims := srv.Simulations(); sims != 2 {
		t.Fatalf("simulations = %d for 2 distinct specs, want 2", sims)
	}
}

// TestBatchTenantCaps: a mixed-tenant batch is admitted whole but still
// runs under the per-tenant concurrency limit.
func TestBatchTenantCaps(t *testing.T) {
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
	batch := &BatchRequest{}
	for _, tenant := range []string{"a", "b"} {
		for i := 0; i < 5; i++ {
			batch.Jobs = append(batch.Jobs, *fakeReq(tenant, i))
		}
	}
	jobs, _, err := srv.SubmitBatch(batch)
	if err != nil {
		t.Fatal(err)
	}
	waitStats(t, srv, func(st Stats) bool { return st.Running == 4 })
	srv.mu.Lock()
	a, b := srv.tenantRunning["a"], srv.tenantRunning["b"]
	srv.mu.Unlock()
	if a != 2 || b != 2 {
		t.Fatalf("running per tenant a=%d b=%d, want 2/2 (limit 2)", a, b)
	}
	close(block)
	for _, j := range jobs {
		waitDone(t, srv, j)
		if j.State != StateDone {
			t.Fatalf("job %s: state=%s err=%q", j.ID, j.State, j.Err)
		}
	}
}

// TestBatchQueueFullAtomic: a batch that does not fit in the remaining
// queue space is rejected whole — no element admitted, no job record, no
// inflight entry, nothing enqueued. Elements that coalesce need no slot,
// so a batch of mostly-duplicates still fits.
func TestBatchQueueFullAtomic(t *testing.T) {
	release := make(chan struct{})
	srv := New(Options{
		MaxQueue:    2,
		TenantLimit: 1,
		runJob: func(j *Job) ([]byte, error) {
			<-release
			return []byte(`{"v":1}`), nil
		},
	})
	j1, _, err := srv.Submit(fakeReq("t", 1)) // runs (blocked)
	if err != nil {
		t.Fatal(err)
	}
	waitStats(t, srv, func(st Stats) bool { return st.Running == 1 })
	j2, _, err := srv.Submit(fakeReq("t", 2)) // queued (tenant limit 1)
	if err != nil {
		t.Fatal(err)
	}

	srv.mu.Lock()
	beforeJobs, beforeInflight, beforeQueue := len(srv.jobs), len(srv.inflight), len(srv.queue)
	srv.mu.Unlock()

	// Three fresh specs need three slots; only one remains.
	over := &BatchRequest{Jobs: []JobRequest{
		*fakeReq("t", 3), *fakeReq("t", 4), *fakeReq("t", 5),
	}}
	if _, _, err := srv.SubmitBatch(over); err != ErrQueueFull {
		t.Fatalf("oversized batch: err = %v, want ErrQueueFull", err)
	}
	srv.mu.Lock()
	afterJobs, afterInflight, afterQueue := len(srv.jobs), len(srv.inflight), len(srv.queue)
	srv.mu.Unlock()
	if afterJobs != beforeJobs || afterInflight != beforeInflight || afterQueue != beforeQueue {
		t.Fatalf("rejected batch left traces: jobs %d→%d inflight %d→%d queue %d→%d",
			beforeJobs, afterJobs, beforeInflight, afterInflight, beforeQueue, afterQueue)
	}

	// Coalescible elements cost no slots: two copies of the queued job's
	// spec plus one fresh spec fit in the single remaining slot.
	fits := &BatchRequest{Jobs: []JobRequest{
		*fakeReq("t", 2), *fakeReq("t", 2), *fakeReq("t", 6),
	}}
	jobs, attached, err := srv.SubmitBatch(fits)
	if err != nil {
		t.Fatal(err)
	}
	if jobs[0] != j2 || jobs[1] != j2 || !attached[0] || !attached[1] || attached[2] {
		t.Fatalf("coalescible elements did not attach to the queued job (attached %v)", attached)
	}
	close(release)
	for _, j := range []*Job{j1, j2, jobs[2]} {
		waitDone(t, srv, j)
	}
}

// TestBatchHTTPOrderAndDefaults drives POST /batch through the Client:
// per-element views come back in request order, zero-valued element
// fields inherit the batch defaults (tenant via the client here), and a
// warm identical batch is a per-element cache/coalesce hit.
func TestBatchHTTPOrderAndDefaults(t *testing.T) {
	srv := New(Options{
		runJob: func(j *Job) ([]byte, error) {
			// Echo the element's distinguishing source so order is checkable.
			return []byte(fmt.Sprintf("{\"echo\":%q}", j.spec.Sources["x.f"])), nil
		},
	})
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	cli := NewClient(hs.URL)
	cli.Tenant = "batcher"

	mkBatch := func() *BatchRequest {
		b := &BatchRequest{Defaults: JobRequest{Machine: "tiny"}}
		for i := 0; i < 4; i++ {
			b.Jobs = append(b.Jobs, JobRequest{
				Sources: map[string]string{"x.f": fmt.Sprintf("element %d", i)},
			})
		}
		return b
	}
	views, err := cli.RunBatch(mkBatch())
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range views {
		if v.V != 1 || v.State != StateDone {
			t.Fatalf("element %d: v=%d state=%s err=%q", i, v.V, v.State, v.Error)
		}
		if v.Tenant != "batcher" {
			t.Fatalf("element %d: tenant %q, want the client default inherited", i, v.Tenant)
		}
		var echo struct {
			Echo string `json:"echo"`
		}
		if err := json.Unmarshal(v.Result, &echo); err != nil {
			t.Fatal(err)
		}
		if want := fmt.Sprintf("element %d", i); echo.Echo != want {
			t.Fatalf("element %d came back out of order: echo %q", i, echo.Echo)
		}
	}
	if cli.Requests() != 4 || cli.CacheHits() != 0 {
		t.Fatalf("cold batch accounting: %d/%d hits/requests, want 0/4",
			cli.CacheHits(), cli.Requests())
	}
}

// TestBatchIdenticalSpecsOneSimulation is the batch identity contract on a
// real simulation: N identical specs in one batch cost one simulation and
// return byte-equal canonical results — equal, too, to what a plain
// single-job submission of the same spec returns, cold or warm.
func TestBatchIdenticalSpecsOneSimulation(t *testing.T) {
	if testing.Short() {
		t.Skip("simulator run")
	}
	store, err := OpenStore(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	srv := New(Options{Store: store})

	batch := &BatchRequest{Defaults: JobRequest{Machine: "tiny"}}
	for i := 0; i < 4; i++ {
		r := transposeReq()
		r.Machine = "" // inherited from the defaults
		batch.Jobs = append(batch.Jobs, *r)
	}
	jobs, attached, err := srv.SubmitBatch(batch)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(jobs); i++ {
		if jobs[i] != jobs[0] || !attached[i] {
			t.Fatalf("identical element %d did not coalesce", i)
		}
	}
	waitDone(t, srv, jobs[0])
	if jobs[0].State != StateDone {
		t.Fatalf("batch job: state=%s err=%q", jobs[0].State, jobs[0].Err)
	}
	if sims := srv.Simulations(); sims != 1 {
		t.Fatalf("simulations = %d for 4 identical specs, want 1", sims)
	}

	// A plain submission of the same spec: served from the store,
	// byte-equal to the batch result.
	single, _, err := srv.Submit(transposeReq())
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, srv, single)
	if !single.Cached || !bytes.Equal(single.Result, jobs[0].Result) {
		t.Fatalf("single submit after the batch: cached=%v byte-equal=%v",
			single.Cached, bytes.Equal(single.Result, jobs[0].Result))
	}

	// Warm repeat of the whole batch: every element a store hit.
	warm, _, err := srv.SubmitBatch(batch)
	if err != nil {
		t.Fatal(err)
	}
	for i, j := range warm {
		waitDone(t, srv, j)
		if !j.Cached || !bytes.Equal(j.Result, jobs[0].Result) {
			t.Fatalf("warm element %d: cached=%v byte-equal=%v",
				i, j.Cached, bytes.Equal(j.Result, jobs[0].Result))
		}
	}
	if sims := srv.Simulations(); sims != 1 {
		t.Fatalf("simulations = %d after the warm batch, want still 1", sims)
	}
	if err := srv.Drain(); err != nil {
		t.Fatal(err)
	}
}

// TestOversizedBodyRejected: POST /jobs and POST /batch refuse a body over
// maxRequestBytes with 413 before decoding it, and nothing is admitted.
func TestOversizedBodyRejected(t *testing.T) {
	srv := New(Options{
		runJob: func(j *Job) ([]byte, error) { return []byte(`{"v":1}`), nil },
	})
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	huge := `{"sources":{"x.f":"` + strings.Repeat("c", maxRequestBytes) + `"}}`
	for _, path := range []string{"/jobs", "/batch"} {
		resp, err := http.Post(hs.URL+path, "application/json", strings.NewReader(huge))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("POST %s with a %d-byte body: status %d, want 413", path, len(huge), resp.StatusCode)
		}
	}
	if st := srv.ServerStats(); st.Jobs != 0 {
		t.Errorf("an oversized request was admitted: %+v", st)
	}
}

// TestUnknownRequestFieldRejected: a misspelt field ("proc") or a retired
// one ("redist", "tier", "engine") is a 400 naming the field on both POST /jobs and
// POST /batch — never a silently defaulted job cached under the key of the
// request the client meant to send.
func TestUnknownRequestFieldRejected(t *testing.T) {
	srv := New(Options{
		runJob: func(j *Job) ([]byte, error) { return []byte(`{"v":1}`), nil },
	})
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	before := srv.ServerStats()
	for field, value := range map[string]string{"proc": `16`, "redist": `"serial"`, "tier": `"classic"`, "engine": `"serial"`} {
		job := fmt.Sprintf(`{"sources":{"x.f":"p"},"machine":"tiny",%q:%s}`, field, value)
		for path, body := range map[string]string{
			"/jobs":  job,
			"/batch": `{"jobs":[` + job + `]}`,
		} {
			resp, err := http.Post(hs.URL+path, "application/json", strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			msg, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(msg), field) {
				t.Errorf("POST %s with field %q: status %d body %s, want 400 naming the field",
					path, field, resp.StatusCode, msg)
			}
		}
	}
	if st := srv.ServerStats(); st != before {
		t.Errorf("a request with an unknown field changed the server: %+v, was %+v", st, before)
	}
}
