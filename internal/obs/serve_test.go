package obs_test

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"

	"dsmdist/internal/core"
	"dsmdist/internal/machine"
	"dsmdist/internal/obs"
	"dsmdist/internal/ospage"
)

// serveGet fetches a path from the test server and returns status + body.
func serveGet(t *testing.T, srv *httptest.Server, path string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(srv.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

// TestLiveServerEndpoints drives a full streamed run and checks every
// endpoint serves its documented document.
func TestLiveServerEndpoints(t *testing.T) {
	cfg := machine.Tiny(4)
	rec := obs.NewRecorder(cfg)
	rec.EnableTrace(0)
	sink, err := obs.NewSpoolSink(filepath.Join(t.TempDir(), "run.spool"))
	if err != nil {
		t.Fatal(err)
	}
	rec.SetTraceSink(sink)
	rec.EnableSeries(20000, nil)

	tc := core.New()
	tc.Rec = rec
	img, err := tc.Build(map[string]string{"main.f": goldenSrc})
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	if _, err := core.Run(img, cfg, core.RunOptions{
		Policy: ospage.FirstTouch, Rec: rec}); err != nil {
		t.Fatalf("run: %v", err)
	}

	srv := httptest.NewServer(obs.NewLiveServer(rec, sink).Handler())
	defer srv.Close()

	// /snapshot: the cached cumulative document, marked done after Finish.
	code, body := serveGet(t, srv, "/snapshot")
	if code != http.StatusOK {
		t.Fatalf("/snapshot: status %d: %s", code, body)
	}
	var snap obs.Snapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatalf("/snapshot: %v", err)
	}
	if snap.V != obs.SeriesVersion || !snap.Done || snap.Clock <= 0 {
		t.Errorf("/snapshot: v=%d done=%v clock=%d", snap.V, snap.Done, snap.Clock)
	}
	if snap.Machine != cfg.Name || snap.Procs != cfg.NProcs {
		t.Errorf("/snapshot: machine %q procs %d, want %q %d",
			snap.Machine, snap.Procs, cfg.Name, cfg.NProcs)
	}
	if snap.SampleCycles != 20000 || snap.Samples != int64(len(rec.SeriesRows())) {
		t.Errorf("/snapshot: sample_cycles=%d samples=%d", snap.SampleCycles, snap.Samples)
	}
	if snap.Summary == nil || len(snap.ProcObs) != cfg.NProcs {
		t.Errorf("/snapshot: summary/proc_obs missing")
	}

	// /series: the wrapper plus every row.
	code, body = serveGet(t, srv, "/series")
	if code != http.StatusOK {
		t.Fatalf("/series: status %d", code)
	}
	var series struct {
		V            int               `json:"v"`
		SampleCycles int64             `json:"sample_cycles"`
		Rows         []json.RawMessage `json:"rows"`
	}
	if err := json.Unmarshal(body, &series); err != nil {
		t.Fatalf("/series: %v", err)
	}
	if series.V != obs.SeriesVersion || series.SampleCycles != 20000 {
		t.Errorf("/series: v=%d sample_cycles=%d", series.V, series.SampleCycles)
	}
	if len(series.Rows) != len(rec.SeriesRows()) || len(series.Rows) == 0 {
		t.Errorf("/series: %d rows, recorder has %d", len(series.Rows), len(rec.SeriesRows()))
	}

	// /trace: the spool finalized on the fly into loadable trace JSON.
	code, body = serveGet(t, srv, "/trace")
	if code != http.StatusOK {
		t.Fatalf("/trace: status %d: %s", code, body)
	}
	var tf struct {
		TraceEvents     []obs.TraceEvent `json:"traceEvents"`
		DisplayTimeUnit string           `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(body, &tf); err != nil {
		t.Fatalf("/trace: %v", err)
	}
	if tf.DisplayTimeUnit != "ms" {
		t.Errorf("/trace: displayTimeUnit %q", tf.DisplayTimeUnit)
	}
	if want := rec.TraceCount() + 2; int64(len(tf.TraceEvents)) != want {
		t.Errorf("/trace: %d events, want %d (spool + meta)", len(tf.TraceEvents), want)
	}

	// /: the dashboard, self-contained HTML.
	code, body = serveGet(t, srv, "/")
	if code != http.StatusOK || !strings.Contains(string(body), "<html") {
		t.Errorf("/: status %d, body starts %q", code, body[:min(len(body), 40)])
	}

	// Unknown paths must 404, not fall through to the dashboard.
	if code, _ = serveGet(t, srv, "/nope"); code != http.StatusNotFound {
		t.Errorf("/nope: status %d, want 404", code)
	}
}

// TestLiveServerDisabledViews: without series sampling or a spool the
// endpoints refuse with 503 rather than serving empty documents.
func TestLiveServerDisabledViews(t *testing.T) {
	rec := obs.NewRecorder(machine.Tiny(2))
	srv := httptest.NewServer(obs.NewLiveServer(rec, nil).Handler())
	defer srv.Close()

	if code, _ := serveGet(t, srv, "/snapshot"); code != http.StatusServiceUnavailable {
		t.Errorf("/snapshot without series: status %d, want 503", code)
	}
	if code, _ := serveGet(t, srv, "/trace"); code != http.StatusServiceUnavailable {
		t.Errorf("/trace without spool: status %d, want 503", code)
	}
}
