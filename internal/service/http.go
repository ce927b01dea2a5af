// HTTP surface of the simulation service:
//
//	POST /jobs            submit a JobRequest; blocks until done unless
//	                      "nowait" — returns a JobView either way
//	POST /batch           submit a BatchRequest: many specs sharing
//	                      defaults, admitted atomically (all-or-429) —
//	                      returns per-element JobViews in request order
//	GET  /jobs/{id}       job status (+ result document when done);
//	                      "?wait=1" blocks until the job finishes
//	GET  /jobs/{id}/snapshot  live obs snapshot of a running job
//	GET  /jobs/{id}/series    cycle-sampled v=1 series rows as JSONL,
//	                      chunk-flushed while the job runs —
//	                      byte-identical to a local -serve series file;
//	                      "?nofollow=1" returns the rows so far and closes
//	GET  /jobs/{id}/      the self-contained live dashboard, pointed at
//	                      this job's snapshot/series
//	GET  /stats           server counters (queue, cache, store)
//	GET  /healthz         liveness probe
//
// Handlers snapshot job state under the server mutex and never touch a
// running simulation's mutable state (the snapshot and series endpoints
// serve the recorder's cached marshaled bytes/rows, the same
// immutable-state rule as the PR 6 -serve handlers).
package service

import (
	"encoding/json"
	"errors"
	"net/http"
	"strings"
	"time"

	"dsmdist/internal/obs"
)

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/jobs", s.handleJobs)
	mux.HandleFunc("/jobs/", s.handleJob)
	mux.HandleFunc("/batch", s.handleBatch)
	mux.HandleFunc("/stats", s.handleStats)
	mux.HandleFunc("/healthz", s.handleHealth)
	return mux
}

// writeJSON answers with v, indented for a person reading it. It marshals
// before writing the header, so a value that fails to encode is a 500 with
// an error body, not a truncated 200.
func writeJSON(w http.ResponseWriter, status int, v any) {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	writeBody(w, status, append(data, '\n'))
}

func writeBody(w http.ResponseWriter, status int, data []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(data)
}

// writeViews answers with job views: a JobView, or a BatchView of them when
// batch is set. Each view's envelope is marshaled compactly and its result
// document — the canonical ResultDoc bytes the store holds — is spliced in
// verbatim as "result", last, so a client can hand back exactly the stored
// bytes without re-encoding them.
func writeViews(w http.ResponseWriter, batch bool, views ...JobView) {
	var buf []byte
	if batch {
		buf = append(buf, `{"v":1,"jobs":[`...) // BatchView
	}
	for i, v := range views {
		if i > 0 {
			buf = append(buf, ',')
		}
		result := v.Result
		v.Result = nil
		env, err := json.Marshal(v)
		if err != nil {
			writeError(w, http.StatusInternalServerError, err)
			return
		}
		if len(result) == 0 {
			buf = append(buf, env...)
			continue
		}
		buf = append(buf, env[:len(env)-1]...) // reopen the envelope object
		buf = append(buf, `,"result":`...)
		buf = append(buf, result...)
		buf = append(buf, '}')
	}
	if batch {
		buf = append(buf, "]}"...)
	}
	writeBody(w, http.StatusOK, append(buf, '\n'))
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, struct {
		Error string `json:"error"`
	}{err.Error()})
}

// maxRequestBytes bounds the body of POST /jobs and POST /batch. The
// largest legitimate request is a batch of full-scale sweep points with
// their sources inlined, well under a megabyte; an unbounded body would be
// decoded into memory whole.
const maxRequestBytes = 16 << 20

// decodeBody reads a size-limited JSON request body into v, answering 413
// (body over maxRequestBytes) or 400 (malformed, or naming a field the
// request type lacks) itself when it fails. Unknown fields are refused
// because a misspelt or retired one would otherwise simulate — and cache
// under the job's key — something other than what the client asked for.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBytes))
	dec.DisallowUnknownFields()
	err := dec.Decode(v)
	if err == nil {
		return true
	}
	status := http.StatusBadRequest
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		status = http.StatusRequestEntityTooLarge
	}
	writeError(w, status, err)
	return false
}

func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	var req JobRequest
	if !decodeBody(w, r, &req) {
		return
	}
	j, attached, err := s.Submit(&req)
	if err != nil {
		writeAdmitError(w, err)
		return
	}
	if !req.NoWait && !s.waitJobs(w, r, j) {
		return
	}
	writeViews(w, false, s.View(j, attached))
}

// writeAdmitError answers a refused submission: 429 when the queue is full,
// 503 while draining, 400 for a request that does not validate.
func writeAdmitError(w http.ResponseWriter, err error) {
	status := http.StatusBadRequest
	switch {
	case errors.Is(err, ErrQueueFull):
		status = http.StatusTooManyRequests
	case errors.Is(err, ErrDraining):
		status = http.StatusServiceUnavailable
	}
	writeError(w, status, err)
}

// waitJobs blocks until every job is done. If the client goes away first it
// answers 408 and reports false; the jobs keep running, and their results
// are cached for the retry.
func (s *Server) waitJobs(w http.ResponseWriter, r *http.Request, jobs ...*Job) bool {
	for _, j := range jobs {
		select {
		case <-s.Done(j):
		case <-r.Context().Done():
			writeError(w, http.StatusRequestTimeout, r.Context().Err())
			return false
		}
	}
	return true
}

// handleBatch is POST /batch: atomic all-or-429 admission of a whole
// batch, per-element JobViews in request order.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	var req BatchRequest
	if !decodeBody(w, r, &req) {
		return
	}
	jobs, attached, err := s.SubmitBatch(&req)
	if err != nil {
		writeAdmitError(w, err)
		return
	}
	if !req.NoWait && !s.waitJobs(w, r, jobs...) {
		return
	}
	views := make([]JobView, len(jobs))
	for i, j := range jobs {
		views[i] = s.View(j, attached[i])
	}
	writeViews(w, true, views...)
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	rest := strings.TrimPrefix(r.URL.Path, "/jobs/")
	id, sub, _ := strings.Cut(rest, "/")
	j, ok := s.Job(id)
	if !ok {
		http.NotFound(w, r)
		return
	}
	switch sub {
	case "":
		if strings.HasSuffix(r.URL.Path, "/") {
			// GET /jobs/{id}/ — the self-contained dashboard. Its relative
			// snapshot/series fetches resolve under this job's path.
			w.Header().Set("Content-Type", "text/html; charset=utf-8")
			w.Write([]byte(obs.DashboardHTML()))
			return
		}
		if r.URL.Query().Get("wait") != "" && !s.waitJobs(w, r, j) {
			return
		}
		writeViews(w, false, s.View(j, false))
	case "snapshot":
		s.mu.Lock()
		rec, snap := j.rec, j.snap
		s.mu.Unlock()
		var buf []byte
		if rec != nil {
			buf = rec.SnapshotJSON()
		} else if snap != nil {
			buf = snap // finished job: the retained final snapshot
		}
		if buf == nil {
			writeError(w, http.StatusServiceUnavailable,
				errors.New("service: no live snapshot (job not running, or no sample yet)"))
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(buf)
	case "series":
		s.streamSeries(w, r, j)
	default:
		http.NotFound(w, r)
	}
}

// streamSeries is GET /jobs/{id}/series: the job's cycle-sampled series
// rows as JSONL, chunk-flushed as the run emits them. The bytes are
// byte-identical to what a local `dsmrun -series`/-serve run of the same
// spec writes: same recorder, same simulated-clock watermark rule, same
// row framing — the stream is just the series file delivered
// incrementally. With ?nofollow=1 the rows so far are returned and the
// response closes (the dashboard's poll mode). A submission served from
// the result cache never ran here and so has no series.
func (s *Server) streamSeries(w http.ResponseWriter, r *http.Request, j *Job) {
	// Wait for the job's recorder to exist: a queued job has none yet,
	// and connecting before the run starts is the common case when the
	// submission was nowait.
	var rec *obs.Recorder
	var retained []json.RawMessage
	for {
		s.mu.Lock()
		rec, retained = j.rec, j.series
		state := j.State
		s.mu.Unlock()
		if rec != nil || retained != nil {
			break
		}
		if state == StateDone || state == StateFailed {
			writeError(w, http.StatusGone,
				errors.New("service: job has no series (served from cache, or its series has been pruned)"))
			return
		}
		select {
		case <-r.Context().Done():
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	writeRows := func(rows []json.RawMessage) {
		for _, row := range rows {
			w.Write(row)
			w.Write([]byte("\n"))
		}
	}
	if rec == nil {
		// Finished job with retained rows: emit them all and close.
		writeRows(retained)
		return
	}
	flusher, _ := w.(http.Flusher)
	nofollow := r.URL.Query().Get("nofollow") != ""
	n := 0
	for {
		rows, done := rec.SeriesRowsFrom(n)
		writeRows(rows)
		n += len(rows)
		if len(rows) > 0 && flusher != nil {
			flusher.Flush()
		}
		if done || nofollow {
			return
		}
		select {
		case <-r.Context().Done():
			return
		case <-s.Done(j):
			// Drain whatever landed after the last poll — the final row
			// is published before the run returns.
			rows, _ := rec.SeriesRowsFrom(n)
			writeRows(rows)
			return
		case <-time.After(25 * time.Millisecond):
		}
	}
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.ServerStats())
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	w.Write([]byte("ok\n"))
}
