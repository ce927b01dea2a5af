package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"dsmdist/internal/core"
	"dsmdist/internal/exec"
	"dsmdist/internal/experiments"
	"dsmdist/internal/obs"
	"dsmdist/internal/ospage"
	"dsmdist/internal/service"
	"dsmdist/internal/workloads"
	"dsmdist/internal/xform"
)

// dsmd_cold and dsmd_warm: the simulation service, served in-process on a
// loopback listener and driven through service.Client in a closed loop.

// dsmdScale is the size of the two service workloads at one scale.
type dsmdScale struct {
	transN, convN, luN [2]int
	redistN            int
	procs              [2]int
	filler             int // result entries the store holds before the first job
	warmOps            int // Client.Run calls per dsmd_warm pass
}

var (
	fullDsmd  = dsmdScale{[2]int{256, 384}, [2]int{256, 384}, [2]int{16, 20}, 256, [2]int{4, 16}, 1000, 8000}
	smokeDsmd = dsmdScale{[2]int{32, 48}, [2]int{32, 48}, [2]int{6, 8}, 32, [2]int{2, 4}, 40, 200}
)

// job is one service job and the same configuration as a local point.
type job struct {
	pt  simPoint
	req service.JobRequest
	key string
}

func newJob(what string, n int, src string, strategy string, p int, policy ospage.Policy) job {
	pt := simPoint{
		label:   fmt.Sprintf("dsmd %s n=%d/%s/P=%d", what, n, strategy, p),
		sources: oneSource(src), opt: xform.O3(), checks: true, mach: scaled(p), policy: policy,
	}
	j := job{pt: pt, req: service.JobRequest{Sources: pt.sources, Procs: p, Policy: policy.String()}}
	j.key = core.JobKey(j.spec())
	return j
}

// spec is the job as the service keys it: the request's defaults filled in.
func (j *job) spec() core.JobSpec {
	return core.JobSpec{Sources: j.pt.sources, Opt: j.pt.opt, RuntimeChecks: j.pt.checks,
		Machine: "scaled", Procs: j.req.Procs, Policy: j.pt.policy}
}

// population returns the 48 jobs of a pass and the 8 further jobs of the
// coalescing check. The set is fixed; the seed fixes the order they are
// submitted in, so every seed does the same work.
func population(sc dsmdScale) (jobs, fresh []job) {
	strategies := []struct {
		name    string
		variant workloads.Variant
		policy  ospage.Policy
	}{
		{"first-touch", workloads.Plain, ospage.FirstTouch},
		{"round-robin", workloads.Plain, ospage.RoundRobin},
		{"regular", workloads.Regular, ospage.FirstTouch},
		{"reshaped", workloads.Reshaped, ospage.FirstTouch},
	}
	for _, p := range sc.procs {
		for i := 0; i < 2; i++ {
			for _, s := range strategies {
				jobs = append(jobs,
					newJob("transpose", sc.transN[i], workloads.Transpose(sc.transN[i], 1, s.variant), s.name, p, s.policy),
					newJob("conv2", sc.convN[i], workloads.Convolution(sc.convN[i], 1, 2, s.variant), s.name, p, s.policy))
				lu := newJob("lu", sc.luN[i], workloads.LU(sc.luN[i], 1, s.variant), s.name, p, s.policy)
				if s.name == "round-robin" {
					fresh = append(fresh, lu)
				} else {
					jobs = append(jobs, lu)
				}
			}
		}
		// The all-to-all remap of Sudarsan & Ribbens (PAPERS.md) as a job.
		for _, pair := range experiments.RedistPairs() {
			src := workloads.Redistribute(sc.redistN, 2, pair.From, pair.To)
			jobs = append(jobs, newJob("redistribute "+pair.Label, sc.redistN, src, "first-touch", p, ospage.FirstTouch))
			fresh = append(fresh, newJob("redistribute "+pair.Label, sc.redistN, src, "round-robin", p, ospage.RoundRobin))
		}
	}
	return jobs, fresh
}

// daemon is one in-process dsmd: a store, a server and its listener.
type daemon struct {
	dir   string
	store *service.Store
	srv   *service.Server
	hs    *http.Server
	base  string
	done  chan error
}

func startDaemon(dir string) (*daemon, error) {
	store, err := service.OpenStore(dir, 0)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	d := &daemon{dir: dir, store: store, srv: service.New(service.Options{Store: store}),
		base: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	d.hs = &http.Server{Handler: d.srv.Handler()}
	go func() { d.done <- d.hs.Serve(ln) }()
	return d, nil
}

// stop shuts the listener down, waits for the serve goroutine, and drains
// the server, which flushes and closes the store.
func (d *daemon) stop() error {
	err := d.hs.Shutdown(context.Background())
	<-d.done
	if derr := d.srv.Drain(); err == nil {
		err = derr
	}
	return err
}

// numClients is the number of load-generating goroutines: min(nproc, 4).
func numClients() int { return min(runtime.NumCPU(), 4) }

// clients returns one service.Client per load-generating goroutine, each
// with its own connection and its own tenant.
func (d *daemon) clients() []*service.Client {
	out := make([]*service.Client, numClients())
	for i := range out {
		out[i] = service.NewClient(d.base)
		out[i].Tenant = fmt.Sprintf("client-%d", i)
		out[i].HTTP = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}}
	}
	return out
}

func closeClients(cs []*service.Client) {
	for _, c := range cs {
		c.HTTP.CloseIdleConnections()
	}
}

// each runs fn(client, i) for i in 0..n-1 over the clients in a closed
// loop: a client takes the next index when its previous call returns.
func each(cs []*service.Client, n int, fn func(c *service.Client, i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for _, c := range cs {
		wg.Add(1)
		go func(c *service.Client) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(c, i)
			}
		}(c)
	}
	wg.Wait()
}

// dsmdBase is what the two service workloads share: the population, the
// golden counts, and the scratch directory holding the prefilled store.
type dsmdBase struct {
	e      *env
	sc     dsmdScale
	jobs   []job
	fresh  []job
	gold   *golden
	filler map[string]bool // object file names of the filler entries
	mu     sync.Mutex      // guards the checker and the fields below during a pass
	cold   map[string][]byte
	totals simTotals // exact counts of the cold replies since the last reset
}

func (b *dsmdBase) setupBase() error {
	b.sc = fullDsmd
	if b.e.cfg.smoke {
		b.sc = smokeDsmd
	}
	b.jobs, b.fresh = population(b.sc)
	b.cold = map[string][]byte{}
	var err error
	if b.gold, err = loadGolden(b.e.cfg.root, "dsmd"); err != nil {
		return err
	}
	// The store: filler result entries, so that the index every Put
	// rewrites and every 64th Get flushes has a realistic length. The
	// files are written directly and adopted by OpenStore, which saves a
	// thousand index rewrites; service.store_put_us times Put itself. They
	// are written once a run: a repeated set-up finds them in place, since
	// creating and unlinking thousands of files run after run made set-up
	// time climb with the file system's backlog, not with the code's cost.
	if b.filler != nil {
		return nil
	}
	if err := os.MkdirAll(filepath.Join(b.storeDir(), "obj"), 0o755); err != nil {
		return err
	}
	b.filler = map[string]bool{}
	filler := bytes.Repeat([]byte(`{"filler": "0123456789abcdef"}`+"\n"), 64)
	for i := 0; i < b.sc.filler; i++ {
		sum := sha256.Sum256([]byte(fmt.Sprintf("filler-%d", i)))
		name := string(service.KindResult) + "-" + hex.EncodeToString(sum[:])
		b.filler[name] = true
		if err := os.WriteFile(filepath.Join(b.storeDir(), "obj", name), filler, 0o644); err != nil {
			return err
		}
	}
	return nil
}

func (b *dsmdBase) storeDir() string { return filepath.Join(b.e.scratch, "store") }

// freshStore returns the store directory holding the filler entries and
// nothing else: what earlier daemons stored is deleted, and OpenStore drops
// index records whose files are gone.
func (b *dsmdBase) freshStore() (string, error) {
	obj := filepath.Join(b.storeDir(), "obj")
	entries, err := os.ReadDir(obj)
	if err != nil {
		return "", err
	}
	for _, e := range entries {
		if !b.filler[e.Name()] {
			if err := os.Remove(filepath.Join(obj, e.Name())); err != nil {
				return "", err
			}
		}
	}
	return b.storeDir(), nil
}

// submit runs one job through a client and checks the reply: no error, the
// expected cache state, and simulated counts equal to the golden ones (a
// cold reply) or bytes equal to the cold reply's (a cached one).
func (b *dsmdBase) submit(c *service.Client, j *job, wantCached bool) (ms float64, instrs int64) {
	req := j.req
	t0 := time.Now()
	view, err := c.Run(&req)
	ms = float64(time.Since(t0)) / 1e6
	b.mu.Lock()
	defer b.mu.Unlock()
	if err != nil {
		b.e.chk.op(false, "job %q: %v", j.pt.label, err)
		return ms, 0
	}
	if wantCached {
		b.e.chk.op(view.Cached && bytes.Equal(view.Result, b.cold[j.key]),
			"job %q: resubmission was not served byte-identical from the store (cached=%v)", j.pt.label, view.Cached)
		return ms, 0
	}
	var doc core.ResultDoc
	if err := json.Unmarshal(view.Result, &doc); err != nil {
		b.e.chk.op(false, "job %q: bad result document: %v", j.pt.label, err)
		return ms, 0
	}
	b.cold[j.key] = view.Result
	b.gold.check(b.e.chk, j.pt.label, countsOfDoc(&doc))
	b.totals.add(countsOfDoc(&doc), doc.Pages)
	return ms, doc.Instrs
}

// checkLocal compares the stored bytes of four sampled jobs with the
// document a local run of the same configuration marshals.
func (b *dsmdBase) checkLocal() {
	for i := 0; i < len(b.jobs); i += len(b.jobs) / 4 {
		j := &b.jobs[i]
		res, err := j.pt.staged(nil, nil, runOpts{})
		var local []byte
		if err == nil {
			local, err = core.NewResultDoc(j.pt.mach(), j.pt.policy, res).Marshal()
		}
		b.e.chk.op(err == nil && bytes.Equal(local, b.cold[j.key]),
			"job %q: service result differs from the local result document (%v)", j.pt.label, err)
	}
}

func (b *dsmdBase) describe() string {
	return fmt.Sprintf("jobs submitted with engine auto, tier auto: engine %s, tier %s by the resolution rule; %d clients",
		autoEngine(), exec.TierAuto.Resolve(), numClients())
}

// ---- dsmd_cold ----

type dsmdCold struct {
	dsmdBase
	rng       *rand.Rand
	checked   bool
	last      *daemon // the reopened daemon of the traced pass, kept for layers
	hitRatio  float64
	simulated int64
	// passTotals are the exact counts of the last pass's 48 result
	// documents.
	passTotals simTotals
}

func (w *dsmdCold) setupReps() int { return 5 }

func (w *dsmdCold) setup() error {
	if err := w.setupBase(); err != nil {
		return err
	}
	w.rng = rand.New(rand.NewSource(w.e.cfg.seed))
	// Warm-up: a daemon on a fresh store serving the eight spare jobs.
	dir, err := w.freshStore()
	if err != nil {
		return err
	}
	d, err := startDaemon(dir)
	if err != nil {
		return err
	}
	cs := d.clients()
	each(cs, len(w.fresh), func(c *service.Client, i int) { w.submit(c, &w.fresh[i], false) })
	closeClients(cs)
	return d.stop()
}

func (w *dsmdCold) teardown() {
	if w.last != nil {
		w.last.stop()
		w.last = nil
	}
}

func (w *dsmdCold) pass(tr *tracer) (passStat, error) {
	var ps passStat
	if w.last != nil { // an earlier traced pass kept its daemon for the probes
		if err := w.last.stop(); err != nil {
			return ps, err
		}
		w.last = nil
	}
	dir, err := w.freshStore()
	if err != nil {
		return ps, err
	}
	d, err := startDaemon(dir)
	if err != nil {
		return ps, err
	}
	cs := d.clients()
	order := w.rng.Perm(len(w.jobs))
	w.totals = simTotals{}
	lat := make([]float64, len(w.jobs))
	var instrs atomic.Int64
	var trMu sync.Mutex

	t0 := time.Now()
	each(cs, len(order), func(c *service.Client, i int) {
		j := &w.jobs[order[i]]
		var id int
		if tr != nil {
			trMu.Lock()
			id = tr.begin("client.run", -1, j.pt.label)
			trMu.Unlock()
		}
		ms, n := w.submit(c, j, false)
		if tr != nil {
			trMu.Lock()
			tr.end(id)
			trMu.Unlock()
		}
		lat[order[i]] = ms
		instrs.Add(n)
	})
	ps.wall = time.Since(t0).Seconds()
	ps.opMS, ps.instrs = lat, instrs.Load()
	w.passTotals = w.totals

	// Untimed from here. Every client submits the same eight new jobs at
	// once: whether a submission coalesces or arrives after the result was
	// stored, exactly eight simulations may run.
	sims := d.srv.Simulations()
	var wg sync.WaitGroup
	for _, c := range cs {
		wg.Add(1)
		go func(c *service.Client) {
			defer wg.Done()
			for i := range w.fresh {
				req := w.fresh[i].req
				_, err := c.Run(&req)
				w.mu.Lock()
				w.e.chk.op(err == nil, "job %q: %v", w.fresh[i].pt.label, err)
				w.mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	delta := d.srv.Simulations() - sims
	w.e.chk.op(delta == int64(len(w.fresh)), "%d clients submitting the same %d jobs ran %d simulations, want %d",
		len(cs), len(w.fresh), delta, len(w.fresh))
	w.simulated = d.srv.Simulations()
	st := d.store.Stats()
	w.hitRatio = float64(st.Hits) / float64(st.Hits+st.Misses)

	// Drop the server, reopen the store, resubmit: every job must come
	// back cached with the bytes of its cold run.
	closeClients(cs)
	if err := d.stop(); err != nil {
		return ps, err
	}
	if d, err = startDaemon(dir); err != nil {
		return ps, err
	}
	cs = d.clients()
	each(cs, len(w.jobs), func(c *service.Client, i int) { w.submit(c, &w.jobs[i], true) })
	w.e.chk.op(d.srv.Simulations() == 0, "restarted daemon ran %d simulations for stored jobs", d.srv.Simulations())
	closeClients(cs)
	if !w.checked {
		w.checked = true
		w.checkLocal()
	}
	if tr != nil {
		w.last = d
		return ps, nil
	}
	return ps, d.stop()
}

func (w *dsmdCold) layers(tr *tracer, traced passStat, m map[string]float64) error {
	m["service.store_hit_ratio"] = w.hitRatio
	m["service.simulations"] = float64(w.simulated)
	if err := serviceProbes(w.last, w.jobs, traced, m); err != nil {
		return err
	}
	w.last = nil

	w.passTotals.metrics(m)

	// Every fourth job built, loaded and run locally, stage by stage, the
	// way dsmrun would (engine auto): how a job's work splits into stages,
	// and the latency the service adds to (or, sharing the host between
	// two jobs, takes off) a local run of the same configuration.
	local := newTracer()
	var latencyMS float64
	var sampled simCounts
	for i := 0; i < len(w.jobs); i += 4 {
		res, err := w.jobs[i].pt.staged(local, nil, runOpts{})
		if err != nil {
			return err
		}
		latencyMS += traced.opMS[i]
		c := countsOfResult(res)
		sampled.Instrs += c.Instrs
		sampled.Stats.Add(c.Stats)
	}
	localMS, _ := local.total("point")
	stageTimes(local, localMS, m)
	m["service.cold_overhead_pct"] = pct(latencyMS, m["core.build_ms"]+m["rtl.load_ms"]+m["exec.run_ms"]) - 100
	cal := calibrate(w.e.cfg.smoke)
	cal.metrics(m)
	cal.model(sampled, m["exec.run_ms"], exec.TierAuto.Resolve(), m)

	// The recorder and series the service attaches to every run, on two
	// sampled jobs: run time with them over run time without.
	var with, without float64
	var rows int
	for _, i := range []int{0, len(w.jobs) / 2} {
		pt := &w.jobs[i].pt
		for _, rec := range []bool{false, true} {
			var runMS []float64
			for rep := 0; rep < 3; rep++ {
				o := runOpts{engine: exec.EngineSerial}
				if rec {
					o.rec = obs.NewRecorder(pt.mach())
					o.rec.EnableSeries(0, nil)
				}
				t := newTracer()
				if _, err := pt.staged(t, nil, o); err != nil {
					return err
				}
				sm := map[string]float64{}
				stageTimes(t, 1, sm)
				runMS = append(runMS, sm["exec.run_ms"])
				if rec && rep == 0 {
					rows += len(o.rec.SeriesRows())
				}
			}
			if rec {
				with += median(runMS)
			} else {
				without += median(runMS)
			}
		}
	}
	m["obs.recorder_overhead_pct"] = pct(with, without) - 100
	m["obs.series_rows"] = float64(rows)
	return nil
}

// ---- dsmd_warm ----

type dsmdWarm struct {
	dsmdBase
	d      *daemon
	cs     []*service.Client
	passes int
	stats0 service.StoreStats
}

func (w *dsmdWarm) setupReps() int { return 1 }

func (w *dsmdWarm) setup() error {
	if err := w.setupBase(); err != nil {
		return err
	}
	dir, err := w.freshStore()
	if err != nil {
		return err
	}
	if w.d, err = startDaemon(dir); err != nil {
		return err
	}
	w.cs = w.d.clients()
	// Warm the store: every job once, cold, checked against the golden
	// counts; then a short warm-up of cached submissions.
	each(w.cs, len(w.jobs), func(c *service.Client, i int) { w.submit(c, &w.jobs[i], false) })
	w.checkLocal()
	w.warmOps(w.sc.warmOps / 20)
	return nil
}

func (w *dsmdWarm) teardown() {
	if w.d != nil {
		closeClients(w.cs)
		w.d.stop()
		w.d = nil
	}
}

// warmOps replays the population in a seeded random order, n submissions
// split evenly over the clients, and returns their latencies.
func (w *dsmdWarm) warmOps(n int) []float64 {
	w.passes++
	per := n / len(w.cs)
	lats := make([][]float64, len(w.cs))
	var wg sync.WaitGroup
	for ci, c := range w.cs {
		wg.Add(1)
		go func(ci int, c *service.Client) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(w.e.cfg.seed*1000003 + int64(w.passes)*101 + int64(ci)))
			for k := 0; k < per; k++ {
				ms, _ := w.submit(c, &w.jobs[rng.Intn(len(w.jobs))], true)
				lats[ci] = append(lats[ci], ms)
			}
		}(ci, c)
	}
	wg.Wait()
	var all []float64
	for _, l := range lats {
		all = append(all, l...)
	}
	return all
}

func (w *dsmdWarm) pass(tr *tracer) (passStat, error) {
	var ps passStat
	sims := w.d.srv.Simulations()
	w.stats0 = w.d.store.Stats()
	t0 := time.Now()
	root := tr.begin("client.run x"+fmt.Sprint(w.sc.warmOps), -1, "pass")
	ps.opMS, ps.unordered = w.warmOps(w.sc.warmOps), true
	tr.end(root)
	ps.wall = time.Since(t0).Seconds()
	w.e.chk.op(w.d.srv.Simulations() == sims, "warm pass ran %d simulations", w.d.srv.Simulations()-sims)
	return ps, nil
}

func (w *dsmdWarm) layers(tr *tracer, traced passStat, m map[string]float64) error {
	st := w.d.store.Stats()
	hits, misses := st.Hits-w.stats0.Hits, st.Misses-w.stats0.Misses
	m["service.store_hit_ratio"] = float64(hits) / float64(hits+misses)
	m["service.simulations"] = float64(w.d.srv.Simulations())
	// No simulation, build or load runs in a warm pass: the stage shares
	// are zero and the whole pass is service time.
	m["share.other_pct"] = 100
	closeClients(w.cs)
	d := w.d
	w.d = nil
	return serviceProbes(d, w.jobs, traced, m)
}

// serviceProbes times the service's layers one at a time on a daemon whose
// store holds every job's result, then stops the daemon.
func serviceProbes(d *daemon, jobs []job, traced passStat, m map[string]float64) error {
	const reps = 10
	n := float64(len(jobs) * reps)
	us := func(t0 time.Time) float64 { return float64(time.Since(t0)) / 1e3 / n }

	t0 := time.Now()
	for r := 0; r < reps; r++ {
		for i := range jobs {
			core.JobKey(jobs[i].spec())
		}
	}
	m["core.jobkey_us"] = us(t0)

	t0 = time.Now()
	for r := 0; r < reps; r++ {
		for i := range jobs {
			if _, ok := d.store.Get(service.KindResult, jobs[i].key); !ok {
				return fmt.Errorf("store lost the result of %q", jobs[i].pt.label)
			}
		}
	}
	m["service.store_get_us"] = us(t0)

	t0 = time.Now()
	for r := 0; r < reps; r++ {
		for i := range jobs {
			req := jobs[i].req
			if j, _, err := d.srv.Submit(&req); err != nil || !j.Cached {
				return fmt.Errorf("in-process Submit of %q missed the store (%v)", jobs[i].pt.label, err)
			}
		}
	}
	m["service.submit_hit_us"] = us(t0)

	// One client, one connection: the HTTP and JSON cost around Submit.
	c := service.NewClient(d.base)
	var rtt []float64
	for r := 0; r < reps; r++ {
		for i := range jobs {
			req := jobs[i].req
			t0 = time.Now()
			if _, err := c.Run(&req); err != nil {
				return err
			}
			rtt = append(rtt, float64(time.Since(t0))/1e3)
		}
	}
	m["service.http_overhead_us"] = median(rtt) - m["service.submit_hit_us"]

	var batch service.BatchRequest
	for i := 0; i < 32; i++ {
		batch.Jobs = append(batch.Jobs, jobs[i%len(jobs)].req)
	}
	var batchMS []float64
	for r := 0; r < 5; r++ {
		t0 = time.Now()
		if _, err := c.RunBatch(&batch); err != nil {
			return err
		}
		batchMS = append(batchMS, float64(time.Since(t0))/1e6)
	}
	m["service.batch32_warm_ms"] = median(batchMS)
	c.HTTP.CloseIdleConnections()

	payload := bytes.Repeat([]byte("x"), 2048)
	t0 = time.Now()
	for i := 0; i < 64; i++ {
		sum := sha256.Sum256([]byte(fmt.Sprintf("probe-%d", i)))
		if err := d.store.Put(service.KindResult, hex.EncodeToString(sum[:]), payload); err != nil {
			return err
		}
	}
	m["service.store_put_us"] = float64(time.Since(t0)) / 1e3 / 64

	if err := d.stop(); err != nil {
		return err
	}
	var openMS []float64
	for r := 0; r < 3; r++ {
		t0 = time.Now()
		st, err := service.OpenStore(d.dir, 0)
		if err != nil {
			return err
		}
		openMS = append(openMS, float64(time.Since(t0))/1e6)
		if err := st.Close(); err != nil {
			return err
		}
	}
	m["service.store_open_ms"] = median(openMS)
	return nil
}
