// Package service is the long-running simulation service behind cmd/dsmd:
// an HTTP/JSON server that accepts (sources, machine, policy, options)
// jobs, keys them through the content-addressed core.JobKey contract, and
// serves results from a two-level cache — an in-memory bounded
// core.BuildCache for compiled images and a persistent disk Store
// (store.go) holding both compile entries and run-result documents.
//
// The simulator is deterministic (bit-identical across engines and tiers),
// so a run result is a pure function of its JobSpec: N users submitting
// the same job cost one simulation, ever. Three mechanisms enforce that:
//
//   - the result store: a finished job's canonical ResultDoc bytes are
//     persisted under its JobKey and replayed for every later submission
//     (across daemon restarts);
//   - in-flight coalescing: concurrent identical submissions attach to the
//     one queued/running job for that key instead of enqueueing again;
//   - the compile cache: distinct jobs sharing sources+options share one
//     compile (memory first, disk behind it).
//
// Admission is a bounded FIFO queue with per-tenant concurrency limits;
// running jobs draw host workers from the shared internal/hostpool budget,
// so a dsmd colocated with local sweeps never oversubscribes the machine.
package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"sync"

	"dsmdist/internal/codegen"
	"dsmdist/internal/core"
	"dsmdist/internal/exec"
	"dsmdist/internal/hostpool"
	"dsmdist/internal/link"
	"dsmdist/internal/machine"
	"dsmdist/internal/obs"
	"dsmdist/internal/ospage"
	"dsmdist/internal/xform"
)

// State is a job's lifecycle position.
type State string

const (
	StateQueued  State = "queued"
	StateRunning State = "running"
	StateDone    State = "done"
	StateFailed  State = "failed"
)

// Submission errors the HTTP layer maps to status codes.
var (
	ErrQueueFull = errors.New("service: job queue is full")
	ErrDraining  = errors.New("service: server is draining")
)

// JobRequest is the POST /jobs body. Zero values select the documented
// defaults, which match a plain local `dsmrun -json` invocation — so a
// remote run's result document is byte-identical to the local one.
type JobRequest struct {
	// Sources is the named Fortran source set (required).
	Sources map[string]string `json:"sources"`
	// Machine is the machine preset: origin2000 | scaled | tiny
	// (default scaled).
	Machine string `json:"machine,omitempty"`
	// Procs is the simulated processor count (default 1).
	Procs int `json:"procs,omitempty"`
	// Policy is the default page policy (default first-touch).
	Policy string `json:"policy,omitempty"`
	// Opt is the optimization level, O0..O3 (default O3).
	Opt string `json:"opt,omitempty"`
	// RuntimeChecks enables the §6 runtime argument checks (default true,
	// matching dsmrun; sweeps submit false).
	RuntimeChecks *bool `json:"runtime_checks,omitempty"`
	// Quantum overrides the interleave granularity (0 = default).
	Quantum int `json:"quantum,omitempty"`
	// Engine picks the host execution engine (default auto). It is NOT
	// part of the cache key: results are bit-identical across engines.
	Engine string `json:"engine,omitempty"`
	// Tenant attributes the job for per-tenant concurrency limiting
	// (default "default").
	Tenant string `json:"tenant,omitempty"`
	// Sample sets the live-series sampling interval in simulated cycles
	// (0 = the obs default). Host-side observability only: like Engine it
	// is NOT part of the cache key, and a submission served from the
	// result cache has no series of its own.
	Sample int64 `json:"sample,omitempty"`
	// NoWait makes POST /jobs return immediately with the queued job
	// instead of blocking until it finishes.
	NoWait bool `json:"nowait,omitempty"`
}

// jobSpec is a validated request: the canonical cache-key spec plus the
// host-side knobs that are deliberately outside it.
type jobSpec struct {
	core.JobSpec
	engine exec.Engine
	sample int64
	mach   func(int) *machine.Config
	tenant string
}

// Job is one admitted submission. Mutable fields are guarded by the
// server mutex; done is closed exactly once when the job leaves
// queued/running.
type Job struct {
	ID        string
	Key       string
	Tenant    string
	State     State
	Cached    bool // served straight from the result store
	Coalesced int  // later submissions that attached to this in-flight job
	Err       string
	Result    []byte // canonical ResultDoc bytes (done jobs)

	spec jobSpec
	rec  *obs.Recorder // live while running; feeds /jobs/{id}/snapshot|series

	// Retained observability artifacts of a finished simulation (bounded
	// by maxSeriesJobs): the full series rows and the final snapshot
	// document, so /jobs/{id}/series and the job dashboard keep working
	// after the run — the same after-the-run behavior a local -serve has.
	series []json.RawMessage
	snap   []byte

	done chan struct{}
}

// JobView is the JSON rendering of a Job (API responses). Cached and
// Coalesced are per-submission: Cached means this submission was served
// from the persistent result cache; Coalesced means it attached to an
// identical job already in flight. Either way no new simulation was spent
// on the submission.
type JobView struct {
	V         int             `json:"v"`
	ID        string          `json:"id"`
	Key       string          `json:"key"`
	Tenant    string          `json:"tenant"`
	State     State           `json:"state"`
	Cached    bool            `json:"cached"`
	Coalesced bool            `json:"coalesced,omitempty"`
	Error     string          `json:"error,omitempty"`
	Result    json.RawMessage `json:"result,omitempty"`
}

// Options configure a Server.
type Options struct {
	// Store persists compile and result entries (nil = memory only).
	Store *Store
	// MaxQueue bounds queued-but-not-running jobs (default 256).
	MaxQueue int
	// TenantLimit caps concurrently running jobs per tenant (default 2).
	TenantLimit int
	// MaxConcurrent caps concurrently running jobs across all tenants
	// (0 = governed by the hostpool budget alone).
	MaxConcurrent int
	// CompileCacheEntries bounds the in-memory compile cache (default 64).
	CompileCacheEntries int

	// runJob replaces the build-and-simulate step (tests: concurrency
	// and drain behavior without real simulations). It still counts as a
	// simulation.
	runJob func(j *Job) ([]byte, error)
}

// Server is the simulation service.
type Server struct {
	opts   Options
	builds *core.BuildCache

	mu            sync.Mutex
	cond          *sync.Cond // signaled when a job finishes (drain waiters)
	jobs          map[string]*Job
	inflight      map[string]*Job // queued/running, by JobKey — the coalescing map
	queue         []*Job          // FIFO of queued jobs
	doneOrder     []string        // finished job IDs, oldest first (retention)
	seriesOrder   []string        // finished jobs with retained series, oldest first
	running       int
	tenantRunning map[string]int
	nextID        int64
	draining      bool
	simulations   int64 // actual simulations executed (cache-effectiveness counter)

	// Scheduler serialization: exactly one schedule() loop runs at a
	// time; concurrent wakers set schedWake and the active loop re-scans.
	scheduling bool
	schedWake  bool
}

// maxDoneJobs bounds retained finished job records; older ones are pruned
// (their results live on in the store).
const maxDoneJobs = 4096

// maxSeriesJobs bounds finished jobs whose series rows and final snapshot
// stay resident (rows grow with run length; results are tiny by
// comparison and get the larger maxDoneJobs bound).
const maxSeriesJobs = 64

// New builds a Server.
func New(opts Options) *Server {
	if opts.MaxQueue <= 0 {
		opts.MaxQueue = 256
	}
	if opts.TenantLimit <= 0 {
		opts.TenantLimit = 2
	}
	if opts.CompileCacheEntries <= 0 {
		opts.CompileCacheEntries = 64
	}
	s := &Server{
		opts:          opts,
		builds:        core.NewBuildCacheLimited(opts.CompileCacheEntries),
		jobs:          map[string]*Job{},
		inflight:      map[string]*Job{},
		tenantRunning: map[string]int{},
	}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// Simulations reports how many submissions actually ran a simulation (as
// opposed to being served from the result cache or coalesced onto an
// in-flight job).
func (s *Server) Simulations() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.simulations
}

// validate turns a request into a jobSpec, rejecting bad fields early so
// queued jobs cannot fail on spelling.
func validate(req *JobRequest) (jobSpec, error) {
	var spec jobSpec
	if len(req.Sources) == 0 {
		return spec, fmt.Errorf("service: job has no sources")
	}
	machName := orDefault(req.Machine, "scaled")
	var err error
	if spec.mach, err = machine.Preset(machName); err != nil {
		return spec, fmt.Errorf("service: %w", err)
	}
	procs := req.Procs
	if procs == 0 {
		procs = 1
	}
	if procs < 1 || procs > 1024 {
		return spec, fmt.Errorf("service: bad processor count %d", procs)
	}
	policy, err := ospage.ParsePolicy(orDefault(req.Policy, "first-touch"))
	if err != nil {
		return spec, fmt.Errorf("service: %w", err)
	}
	var opt xform.Options
	switch orDefault(req.Opt, "O3") {
	case "O0":
		opt = xform.O0()
	case "O1":
		opt = xform.O1()
	case "O2":
		opt = xform.O2()
	case "O3":
		opt = xform.O3()
	default:
		return spec, fmt.Errorf("service: unknown opt level %q (accepted: O0, O1, O2, O3)", req.Opt)
	}
	engine, err := exec.ParseEngine(orDefault(req.Engine, "auto"))
	if err != nil {
		return spec, fmt.Errorf("service: %w", err)
	}
	checks := true
	if req.RuntimeChecks != nil {
		checks = *req.RuntimeChecks
	}
	if req.Quantum < 0 {
		return spec, fmt.Errorf("service: bad quantum %d", req.Quantum)
	}
	if req.Sample < 0 {
		return spec, fmt.Errorf("service: bad sample interval %d", req.Sample)
	}

	spec.JobSpec = core.JobSpec{
		Sources:       req.Sources,
		Opt:           opt,
		RuntimeChecks: checks,
		Machine:       machName,
		Procs:         procs,
		Policy:        policy,
		Quantum:       req.Quantum,
	}
	spec.engine = engine
	spec.sample = req.Sample
	spec.tenant = orDefault(req.Tenant, "default")
	return spec, nil
}

func orDefault(v, def string) string {
	if v == "" {
		return def
	}
	return v
}

// Submit admits a job: result-cache hit, coalesce onto an in-flight
// identical job, or enqueue. The returned Job may already be done (cache
// hit); otherwise wait on Done(job). attached reports that this
// submission coalesced onto a job another submission started.
func (s *Server) Submit(req *JobRequest) (j *Job, attached bool, err error) {
	spec, err := validate(req)
	if err != nil {
		return nil, false, err
	}
	jobs, att, err := s.admit([]jobSpec{spec})
	if err != nil {
		return nil, false, err
	}
	return jobs[0], att[0], nil
}

// admit is the one admission path behind Submit and SubmitBatch. Each
// validated spec takes the cheapest route available — persisted result,
// coalesce onto an in-flight identical job (including an earlier spec of the
// same call), or enqueue — and admission is all-or-nothing against the
// queue bound: the specs that genuinely need a queue slot must all fit in
// the remaining space, or no job is created and ErrQueueFull comes back.
// The returned slices parallel specs.
func (s *Server) admit(specs []jobSpec) (jobs []*Job, attached []bool, err error) {
	// Store lookups come first and outside the server mutex (the store has
	// its own lock and hits the disk for payloads), so restarts and
	// cross-user sharing both hit; an identical job finishing between this
	// check and the admission below only costs a coalesced wait, never a
	// duplicate simulation.
	keys := make([]string, len(specs))
	cached := make([][]byte, len(specs)) // non-nil: persisted result document
	for i := range specs {
		keys[i] = core.JobKey(specs[i].JobSpec)
		if s.opts.Store != nil {
			// A stored result that is not a JSON document (a file torn by
			// a crash) is dropped and re-simulated, not served.
			if data, ok := s.opts.Store.get(KindResult, keys[i], json.Valid); ok {
				cached[i] = data
			}
		}
	}

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return nil, nil, ErrDraining
	}
	// Count the queue slots this call needs before creating anything, so
	// rejection leaves no trace (no job records, no inflight entries).
	need := 0
	dup := map[string]bool{}
	for i, key := range keys {
		if cached[i] == nil && s.inflight[key] == nil && !dup[key] {
			dup[key] = true
			need++
		}
	}
	if len(s.queue)+need > s.opts.MaxQueue {
		s.mu.Unlock()
		return nil, nil, ErrQueueFull
	}
	jobs = make([]*Job, len(specs))
	attached = make([]bool, len(specs))
	for i, key := range keys {
		if cached[i] != nil {
			j := s.newJobLocked(key, specs[i])
			j.State, j.Cached, j.Result = StateDone, true, cached[i]
			close(j.done)
			s.retireLocked(j)
			jobs[i] = j
			continue
		}
		// Earlier specs of this call have already registered their keys
		// in inflight, so duplicates within a batch coalesce here too.
		if j := s.inflight[key]; j != nil {
			j.Coalesced++
			jobs[i], attached[i] = j, true
			continue
		}
		j := s.newJobLocked(key, specs[i])
		j.State = StateQueued
		s.inflight[key] = j
		s.queue = append(s.queue, j)
		jobs[i] = j
	}
	s.mu.Unlock()
	if need > 0 {
		s.schedule()
	}
	return jobs, attached, nil
}

// newJobLocked allocates a job record. Callers hold mu.
func (s *Server) newJobLocked(key string, spec jobSpec) *Job {
	s.nextID++
	j := &Job{
		ID:     fmt.Sprintf("j%d", s.nextID),
		Key:    key,
		Tenant: spec.tenant,
		spec:   spec,
		done:   make(chan struct{}),
	}
	s.jobs[j.ID] = j
	return j
}

// retireLocked records a finished job for retention pruning. Callers hold
// mu.
func (s *Server) retireLocked(j *Job) {
	s.doneOrder = append(s.doneOrder, j.ID)
	for len(s.doneOrder) > maxDoneJobs {
		delete(s.jobs, s.doneOrder[0])
		s.doneOrder = s.doneOrder[1:]
	}
}

// Done returns the channel closed when j finishes.
func (s *Server) Done(j *Job) <-chan struct{} { return j.done }

// Job looks a job up by ID.
func (s *Server) Job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// View snapshots a job for JSON rendering. attached marks the view of a
// submission that coalesced onto this job.
func (s *Server) View(j *Job, attached bool) JobView {
	s.mu.Lock()
	defer s.mu.Unlock()
	return JobView{
		V: 1, ID: j.ID, Key: j.Key, Tenant: j.Tenant, State: j.State,
		Cached: j.Cached, Coalesced: attached, Error: j.Err,
		Result: json.RawMessage(j.Result),
	}
}

// nextRunnableLocked returns the first queued job admissible under the
// per-tenant and global caps, with its queue index. Callers hold mu.
func (s *Server) nextRunnableLocked() (*Job, int) {
	if s.opts.MaxConcurrent > 0 && s.running >= s.opts.MaxConcurrent {
		return nil, 0
	}
	for qi, j := range s.queue {
		if s.tenantRunning[j.Tenant] >= s.opts.TenantLimit {
			continue
		}
		return j, qi
	}
	return nil, 0
}

// schedule starts every currently admissible queued job. Admission:
// FIFO order, per-tenant running cap, optional global cap, and — beyond
// the first concurrently running job, which rides on the server's own
// implicit hostpool worker — one host-worker grant per job from the shared
// hostpool budget, so service jobs and colocated local sweeps never
// oversubscribe the machine. Jobs denied a grant stay queued; every job
// completion re-runs the scheduler, so progress is guaranteed (the first
// slot never needs a grant).
//
// hostpool calls happen OUTSIDE the server mutex: the pool has its own
// lock, and coupling the two on every job boundary invites lock-order
// inversions as either side grows. To keep admission race-free without
// holding mu across Acquire, the candidate job is pulled off the queue
// before unlocking (reserving it) and exactly one schedule loop runs at a
// time — concurrent wakers set schedWake and the active loop re-scans.
func (s *Server) schedule() {
	s.mu.Lock()
	if s.scheduling {
		s.schedWake = true
		s.mu.Unlock()
		return
	}
	s.scheduling = true
	for {
		s.schedWake = false
		j, qi := s.nextRunnableLocked()
		if j == nil {
			break
		}
		// Reserve the job so no concurrent waker can consider it while
		// the mutex is released for the pool call.
		s.queue = append(s.queue[:qi], s.queue[qi+1:]...)
		grant := 0
		if s.running > 0 {
			s.mu.Unlock()
			grant = hostpool.Acquire(1)
			s.mu.Lock()
			if grant == 0 {
				// Pool dry: put the job back where it was (only tail
				// appends can have happened meanwhile) and stop; the next
				// completion releases a grant and re-runs the scheduler.
				s.queue = append(s.queue[:qi], append([]*Job{j}, s.queue[qi:]...)...)
				break
			}
		}
		s.running++
		s.tenantRunning[j.Tenant]++
		j.State = StateRunning
		s.simulations++
		go s.runJob(j, grant)
	}
	s.scheduling = false
	wake := s.schedWake
	s.mu.Unlock()
	if wake {
		// A waker arrived in the window after the final scan; its queue
		// state was never examined, so scan again.
		s.schedule()
	}
}

// execute is the build-and-simulate step of one job. A panic inside it —
// a toolchain or simulator bug reached by this job's input — becomes the
// job's error, so it fails that job alone: runJob still releases the
// hostpool grant and the scheduler carries on.
func (s *Server) execute(j *Job) (data []byte, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("service: job %s panicked: %v", j.ID, r)
		}
	}()
	if s.opts.runJob != nil {
		return s.opts.runJob(j)
	}
	return s.simulate(j)
}

// runJob executes one job and publishes its outcome.
func (s *Server) runJob(j *Job, grant int) {
	data, err := s.execute(j)

	s.mu.Lock()
	if err != nil {
		j.State = StateFailed
		j.Err = err.Error()
	} else {
		j.State = StateDone
		j.Result = data
	}
	if j.rec != nil {
		// Retain the run's observability artifacts so the series and
		// dashboard endpoints outlive the run (bounded below).
		j.series = j.rec.SeriesRows()
		j.snap = j.rec.SnapshotJSON()
		j.rec = nil
		s.seriesOrder = append(s.seriesOrder, j.ID)
		for len(s.seriesOrder) > maxSeriesJobs {
			if old := s.jobs[s.seriesOrder[0]]; old != nil {
				old.series, old.snap = nil, nil
			}
			s.seriesOrder = s.seriesOrder[1:]
		}
	}
	delete(s.inflight, j.Key)
	s.running--
	s.tenantRunning[j.Tenant]--
	if s.tenantRunning[j.Tenant] == 0 {
		delete(s.tenantRunning, j.Tenant)
	}
	s.retireLocked(j)
	close(j.done)
	s.cond.Broadcast()
	s.mu.Unlock()
	hostpool.Release(grant)
	s.schedule()
}

// simulate is the real build-and-run step: compile through the two-level
// compile cache, execute with a live recorder (feeding /jobs/{id}/snapshot
// and /jobs/{id}/series — observability never changes simulated cycles),
// and persist the canonical result document.
func (s *Server) simulate(j *Job) ([]byte, error) {
	img, err := s.buildImage(j.spec)
	if err != nil {
		return nil, err
	}
	cfg := j.spec.mach(j.spec.Procs)
	rec := obs.NewRecorder(cfg)
	rec.EnableSeries(j.spec.sample, nil)
	s.mu.Lock()
	j.rec = rec
	s.mu.Unlock()

	run, err := core.Run(img, cfg, core.RunOptions{
		Policy:  j.spec.Policy,
		Quantum: j.spec.Quantum,
		Engine:  j.spec.engine,
		Rec:     rec,
	})
	if err != nil {
		return nil, err
	}
	data, err := core.NewResultDoc(cfg, j.spec.Policy, run).Marshal()
	if err != nil {
		return nil, err
	}
	if s.opts.Store != nil {
		if err := s.opts.Store.Put(KindResult, j.Key, data); err != nil {
			return nil, err
		}
	}
	return data, nil
}

// buildImage compiles through the in-memory bounded BuildCache with the
// disk store behind it: memory hit → clone; disk hit → decode; miss →
// compile, persist, cache.
func (s *Server) buildImage(spec jobSpec) (*link.Image, error) {
	ck := core.CompileKey(spec.Sources, spec.Opt, spec.RuntimeChecks)
	return s.builds.Get(ck, func() (*link.Image, error) {
		if s.opts.Store != nil {
			if data, ok := s.opts.Store.Get(KindCompile, ck); ok {
				if res, err := codegen.DecodeImage(bytes.NewReader(data)); err == nil {
					return &link.Image{Res: res}, nil
				}
				// Corrupt payload: fall through and recompile over it.
			}
		}
		tc := core.NewAt(spec.Opt)
		tc.RuntimeChecks = spec.RuntimeChecks
		img, err := tc.Build(spec.Sources)
		if err != nil {
			return nil, err
		}
		if s.opts.Store != nil {
			var buf bytes.Buffer
			if err := codegen.EncodeImage(&buf, img.Res); err == nil {
				if err := s.opts.Store.Put(KindCompile, ck, buf.Bytes()); err != nil {
					return nil, err
				}
			}
		}
		return img, nil
	})
}

// Drain stops admission and blocks until every queued and running job has
// finished, then flushes the store — the SIGTERM path: a mid-job kill
// completes and persists the job instead of losing it.
func (s *Server) Drain() error {
	s.mu.Lock()
	s.draining = true
	for s.running > 0 || len(s.queue) > 0 {
		s.cond.Wait()
	}
	s.mu.Unlock()
	if s.opts.Store != nil {
		return s.opts.Store.Close()
	}
	return nil
}

// Stats is the GET /stats document.
type Stats struct {
	V           int         `json:"v"`
	Jobs        int         `json:"jobs"`
	Queued      int         `json:"queued"`
	Running     int         `json:"running"`
	Simulations int64       `json:"simulations"`
	BuildHits   int64       `json:"build_hits"`
	BuildMisses int64       `json:"build_misses"`
	Draining    bool        `json:"draining"`
	Store       *StoreStats `json:"store,omitempty"`
}

// ServerStats snapshots the server counters.
func (s *Server) ServerStats() Stats {
	s.mu.Lock()
	st := Stats{
		V: 1, Jobs: len(s.jobs), Queued: len(s.queue), Running: s.running,
		Simulations: s.simulations, Draining: s.draining,
	}
	s.mu.Unlock()
	st.BuildHits, st.BuildMisses = s.builds.Stats()
	if s.opts.Store != nil {
		ss := s.opts.Store.Stats()
		st.Store = &ss
	}
	return st
}
