// Client side of the simulation service: dsmrun -remote and
// dsmadvise -remote submit jobs here instead of building and simulating
// locally, turning repeated work — most prominently the advisor's
// top-K × P verification fan-out — into shared cache hits.
package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync/atomic"
	"time"
)

// Client talks to a dsmd server.
type Client struct {
	// Base is the server address, e.g. "http://127.0.0.1:8377".
	Base string
	// Tenant attributes this client's jobs (optional).
	Tenant string
	// HTTP is the transport (default: a client with no overall timeout —
	// simulations legitimately run long; rely on context/server limits).
	HTTP *http.Client

	// backoff is the base delay of the 429 retry loop (attempt i sleeps
	// (i+1)×backoff; 0 = 100ms). Tests shorten it.
	backoff time.Duration

	requests  atomic.Int64
	cacheHits atomic.Int64
}

// NewClient builds a client for a base URL ("host:port" gets "http://"
// prepended).
func NewClient(base string) *Client {
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	return &Client{Base: strings.TrimRight(base, "/"), HTTP: &http.Client{}}
}

// Requests and CacheHits report this client's submission accounting: a hit
// is a job served from the server's result cache or coalesced onto another
// submission's in-flight run — either way, no new simulation was spent on
// it.
func (c *Client) Requests() int64  { return c.requests.Load() }
func (c *Client) CacheHits() int64 { return c.cacheHits.Load() }

// Health probes /healthz.
func (c *Client) Health() error {
	resp, err := c.HTTP.Get(c.Base + "/healthz")
	if err != nil {
		return fmt.Errorf("service: %s unreachable: %w", c.Base, err)
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("service: %s health check: %s", c.Base, resp.Status)
	}
	return nil
}

// post sends a JSON body, retrying 429 (a full queue is the one retryable
// admission failure; back off briefly instead of failing a whole sweep for
// a transient spike), and returns the response body and status.
func (c *Client) post(path string, body []byte) ([]byte, int, error) {
	base := c.backoff
	if base == 0 {
		base = 100 * time.Millisecond
	}
	var resp *http.Response
	var err error
	for attempt := 0; ; attempt++ {
		resp, err = c.HTTP.Post(c.Base+path, "application/json", bytes.NewReader(body))
		if err != nil {
			return nil, 0, fmt.Errorf("service: submit to %s: %w", c.Base, err)
		}
		if resp.StatusCode != http.StatusTooManyRequests || attempt >= 5 {
			break
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		time.Sleep(time.Duration(attempt+1) * base)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, 0, fmt.Errorf("service: read response: %w", err)
	}
	return data, resp.StatusCode, nil
}

// statusError renders a non-OK response as an error.
func statusError(status int, data []byte) error {
	var e struct {
		Error string `json:"error"`
	}
	text := http.StatusText(status)
	if json.Unmarshal(data, &e) == nil && e.Error != "" {
		return fmt.Errorf("service: %d %s: %s", status, text, e.Error)
	}
	return fmt.Errorf("service: %d %s: %s", status, text, strings.TrimSpace(string(data)))
}

// storedResult restores the exact result bytes the server stored. The
// server splices them into the view verbatim, and decoding drops only the
// canonical document's final newline, so appending it back is the whole
// conversion: no re-encoding, no reformatting.
func storedResult(view *JobView) {
	if len(view.Result) > 0 {
		view.Result = append(view.Result, '\n')
	}
}

// finished converts a terminal view into the caller's result: a failed
// (or impossibly non-terminal) job becomes an error.
func finished(view *JobView) (*JobView, error) {
	if view.State == StateFailed {
		return nil, fmt.Errorf("service: job %s failed: %s", view.ID, view.Error)
	}
	if view.State != StateDone {
		return nil, fmt.Errorf("service: job %s ended in state %q", view.ID, view.State)
	}
	return view, nil
}

// Run submits a job and blocks until it finishes (req.NoWait is forced
// off), returning the job view with its result document. A failed job is
// returned as an error.
func (c *Client) Run(req *JobRequest) (*JobView, error) {
	// Count the submission attempt up front, whatever its fate: transport
	// errors, non-OK statuses, exhausted 429 retries and failed jobs must
	// all show up in Requests(), or the cache-hit ratio clients print
	// overstates the hits.
	c.requests.Add(1)
	req.NoWait = false
	if req.Tenant == "" {
		req.Tenant = c.Tenant
	}
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	data, status, err := c.post("/jobs", body)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, statusError(status, data)
	}
	var view JobView
	if err := json.Unmarshal(data, &view); err != nil {
		return nil, fmt.Errorf("service: bad job response: %w", err)
	}
	storedResult(&view)
	if view.Cached || view.Coalesced {
		c.cacheHits.Add(1)
	}
	return finished(&view)
}

// RunBatch submits a whole batch in one POST /batch round trip. Admission
// is atomic (all-or-429 server side, with the same bounded retry as Run
// in front); every element counts toward Requests(), and elements served
// from the result cache or coalesced count toward CacheHits(). Views come
// back in request order with canonical result bytes. With req.NoWait the
// views may still be queued/running — WaitJob follows them to completion;
// without it, callers should still check per-element State (a failed
// element does not fail the batch call).
func (c *Client) RunBatch(req *BatchRequest) ([]JobView, error) {
	c.requests.Add(int64(len(req.Jobs)))
	if req.Defaults.Tenant == "" {
		req.Defaults.Tenant = c.Tenant
	}
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	data, status, err := c.post("/batch", body)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, statusError(status, data)
	}
	var view BatchView
	if err := json.Unmarshal(data, &view); err != nil {
		return nil, fmt.Errorf("service: bad batch response: %w", err)
	}
	if len(view.Jobs) != len(req.Jobs) {
		return nil, fmt.Errorf("service: batch returned %d views for %d jobs", len(view.Jobs), len(req.Jobs))
	}
	for i := range view.Jobs {
		storedResult(&view.Jobs[i])
		if view.Jobs[i].Cached || view.Jobs[i].Coalesced {
			c.cacheHits.Add(1)
		}
	}
	return view.Jobs, nil
}

// WaitJob blocks until job id finishes (the GET /jobs/{id}?wait=1 long
// poll) and returns the finished view with canonical result bytes. It is
// a status follow for jobs already submitted — typically a nowait batch's
// elements — not a submission: no Requests()/CacheHits() accounting.
func (c *Client) WaitJob(id string) (*JobView, error) {
	resp, err := c.HTTP.Get(c.Base + "/jobs/" + id + "?wait=1")
	if err != nil {
		return nil, fmt.Errorf("service: wait for job %s: %w", id, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("service: read response: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, statusError(resp.StatusCode, data)
	}
	var view JobView
	if err := json.Unmarshal(data, &view); err != nil {
		return nil, fmt.Errorf("service: bad job response: %w", err)
	}
	storedResult(&view)
	return finished(&view)
}
