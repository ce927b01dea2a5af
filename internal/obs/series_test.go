package obs_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"dsmdist/internal/core"
	"dsmdist/internal/machine"
	"dsmdist/internal/obs"
	"dsmdist/internal/ospage"
)

// runWithSeries runs src with cycle sampling at the given interval and
// returns the recorder.
func runWithSeries(t *testing.T, src string, cfg *machine.Config, interval int64) *obs.Recorder {
	t.Helper()
	rec := obs.NewRecorder(cfg)
	rec.EnableSeries(interval, nil)
	tc := core.New()
	tc.Rec = rec
	img, err := tc.Build(map[string]string{"main.f": src})
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	if _, err := core.Run(img, cfg, core.RunOptions{
		Policy: ospage.FirstTouch, Rec: rec}); err != nil {
		t.Fatalf("run: %v", err)
	}
	return rec
}

// TestSeriesJSONLGolden pins the v=1 series row schema with a golden file:
// dashboards and scripts consume these rows incrementally, so any change
// to the shape must be deliberate (regenerate with
// `go test ./internal/obs -run TestSeriesJSONLGolden -update`).
func TestSeriesJSONLGolden(t *testing.T) {
	rec := runWithSeries(t, goldenSrc, machine.Tiny(4), 20000)

	var buf bytes.Buffer
	if err := rec.WriteSeries(&buf); err != nil {
		t.Fatal(err)
	}
	if err := rec.SeriesErr(); err != nil {
		t.Fatal(err)
	}

	golden := filepath.Join("testdata", "series_golden.jsonl")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("golden file missing (regenerate with -update): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("series JSONL drifted from golden file %s\n--- got ---\n%s\n--- want ---\n%s\n(regenerate with -update if the change is intended)",
			golden, buf.Bytes(), want)
	}

	// Schema guards independent of the golden bytes: version, dense
	// sequence numbers, monotone clocks, the final marker on the last row
	// only, and the key names scripts depend on.
	var rows []map[string]json.RawMessage
	sc := bufio.NewScanner(bytes.NewReader(buf.Bytes()))
	for sc.Scan() {
		var m map[string]json.RawMessage
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatalf("row %d is not a JSON object: %v", len(rows), err)
		}
		rows = append(rows, m)
	}
	if len(rows) < 2 {
		t.Fatalf("expected at least an interval row and a final row, got %d", len(rows))
	}
	lastClock := int64(-1)
	for i, m := range rows {
		for _, k := range []string{"v", "seq", "clock", "now"} {
			if _, ok := m[k]; !ok {
				t.Fatalf("row %d: key %q missing", i, k)
			}
		}
		var v, seq, clock int64
		json.Unmarshal(m["v"], &v)
		json.Unmarshal(m["seq"], &seq)
		json.Unmarshal(m["clock"], &clock)
		if v != int64(obs.SeriesVersion) {
			t.Errorf("row %d: v = %d, want %d", i, v, obs.SeriesVersion)
		}
		if seq != int64(i) {
			t.Errorf("row %d: seq = %d", i, seq)
		}
		if clock <= lastClock {
			t.Errorf("row %d: clock %d not past previous %d", i, clock, lastClock)
		}
		lastClock = clock
		_, final := m["final"]
		if final != (i == len(rows)-1) {
			t.Errorf("row %d: final marker misplaced", i)
		}
	}
	// The run touches memory, so the series as a whole must carry event
	// deltas, per-proc counters, and heat for the distributed array.
	var sawEvents, sawProcs, sawHeat bool
	for _, m := range rows {
		if _, ok := m["events"]; ok {
			sawEvents = true
		}
		if _, ok := m["procs"]; ok {
			sawProcs = true
		}
		if raw, ok := m["heat"]; ok {
			sawHeat = true
			var hs []struct {
				Array string `json:"array"`
				Node  *int   `json:"node"`
			}
			if err := json.Unmarshal(raw, &hs); err != nil {
				t.Fatalf("heat rows malformed: %v", err)
			}
			for _, h := range hs {
				if h.Array != "hg.x" || h.Node == nil {
					t.Errorf("heat row %+v: want array hg.x with a node index", h)
				}
			}
		}
	}
	if !sawEvents || !sawProcs || !sawHeat {
		t.Errorf("series missing sections: events=%v procs=%v heat=%v", sawEvents, sawProcs, sawHeat)
	}
	// The final row must close the books: regions with the doacross's name.
	last := rows[len(rows)-1]
	raw, ok := last["regions"]
	if !ok {
		t.Fatal("final row has no regions section")
	}
	var rg []struct {
		Name   string `json:"name"`
		Cycles int64  `json:"cycles"`
	}
	if err := json.Unmarshal(raw, &rg); err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, r := range rg {
		total += r.Cycles
	}
	if total <= 0 {
		t.Errorf("final row regions carry no cycle deltas: %s", raw)
	}
}

// TestSeriesDeltasSumToTotals checks the stream is lossless: summing the
// per-row event deltas over the whole series reproduces the recorder's
// cumulative counters.
func TestSeriesDeltasSumToTotals(t *testing.T) {
	rec := runWithSeries(t, goldenSrc, machine.Tiny(4), 20000)
	sums := map[string]int64{}
	for _, row := range rec.SeriesRows() {
		var m struct {
			Events map[string]int64 `json:"events"`
		}
		if err := json.Unmarshal(row, &m); err != nil {
			t.Fatal(err)
		}
		for k, v := range m.Events {
			sums[k] += v
		}
	}
	for k, total := range rec.Counts() {
		if sums[k] != total {
			t.Errorf("event %q: series deltas sum to %d, recorder total %d", k, sums[k], total)
		}
	}
}
