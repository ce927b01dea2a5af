// The streaming identity contract: GET /jobs/{id}/series delivers exactly
// the bytes a local `dsmrun -series` run of the same spec writes — same
// recorder, same sampling watermark, same row framing — and the per-job
// dashboard/snapshot endpoints keep working after the run finishes.
package service

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"dsmdist/internal/core"
	"dsmdist/internal/obs"
)

func TestSeriesEndpointMatchesLocalRun(t *testing.T) {
	if testing.Short() {
		t.Skip("simulator run")
	}
	store, err := OpenStore(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	srv := New(Options{Store: store})
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	req := transposeReq()
	req.Sample = 5000
	cli := NewClient(hs.URL)
	view, err := cli.Run(req)
	if err != nil {
		t.Fatal(err)
	}

	get := func(path string) (*http.Response, []byte) {
		resp, err := http.Get(hs.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp, data
	}

	// The finished job retains its series: the endpoint serves the full
	// row set.
	resp, remote := get("/jobs/" + view.ID + "/series")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET series: %s: %s", resp.Status, remote)
	}
	if len(remote) == 0 {
		t.Fatal("series endpoint returned no rows")
	}

	// A local run of the identical spec, series written to a buffer the
	// way dsmrun -series writes its file. validate() reproduces the exact
	// spec the server ran.
	spec, err := validate(req)
	if err != nil {
		t.Fatal(err)
	}
	tc := core.NewAt(spec.Opt)
	tc.RuntimeChecks = spec.RuntimeChecks
	img, err := tc.Build(spec.Sources)
	if err != nil {
		t.Fatal(err)
	}
	cfg := spec.mach(spec.Procs)
	rec := obs.NewRecorder(cfg)
	var local bytes.Buffer
	rec.EnableSeries(spec.sample, &local)
	if _, err := core.Run(img, cfg, core.RunOptions{
		Policy:  spec.Policy,
		Quantum: spec.Quantum,
		Rec:     rec,
	}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(remote, local.Bytes()) {
		t.Fatalf("remote series differs from the local series file:\n--- remote\n%s\n--- local\n%s",
			remote, local.Bytes())
	}

	// Every row is v=1 and the last carries the final marker.
	lines := strings.Split(strings.TrimRight(string(remote), "\n"), "\n")
	var last struct {
		V     int  `json:"v"`
		Final bool `json:"final"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatal(err)
	}
	if last.V != obs.SeriesVersion || !last.Final {
		t.Fatalf("last row: v=%d final=%v, want v=%d final", last.V, last.Final, obs.SeriesVersion)
	}

	// The per-job dashboard and the retained final snapshot.
	resp, body := get("/jobs/" + view.ID + "/")
	if resp.StatusCode != http.StatusOK || !strings.Contains(resp.Header.Get("Content-Type"), "text/html") {
		t.Fatalf("GET dashboard: %s, content-type %q", resp.Status, resp.Header.Get("Content-Type"))
	}
	if !strings.Contains(string(body), "<html") {
		t.Fatal("dashboard response is not the HTML page")
	}
	resp, body = get("/jobs/" + view.ID + "/snapshot")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET snapshot after the run: %s: %s", resp.Status, body)
	}
	var snap obs.Snapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatal(err)
	}
	if !snap.Done || snap.Samples == 0 {
		t.Fatalf("retained snapshot: done=%v samples=%d, want a finished snapshot", snap.Done, snap.Samples)
	}

	// A submission served from the result cache never ran: no series.
	warm, err := cli.Run(req)
	if err != nil {
		t.Fatal(err)
	}
	if !warm.Cached {
		t.Fatal("warm submission not served from the cache")
	}
	resp, body = get("/jobs/" + warm.ID + "/series")
	if resp.StatusCode != http.StatusGone {
		t.Fatalf("GET series of a cached job: %s (%s), want 410 Gone", resp.Status, body)
	}
	if err := srv.Drain(); err != nil {
		t.Fatal(err)
	}
}
