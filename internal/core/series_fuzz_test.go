package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"dsmdist/internal/machine"
	"dsmdist/internal/obs"
	"dsmdist/internal/ospage"
)

// The series contract: every cycle-sampled snapshot row is a pure function
// of the recorder event stream, so a repeated run must reproduce the rows
// byte for byte — not just the end-of-run totals the fuzz harnesses
// compare.

// seriesRun executes src with cycle sampling on and returns the marshaled
// rows.
func seriesRun(t *testing.T, src string, np int) [][]byte {
	t.Helper()
	tc := New()
	tc.RuntimeChecks = false
	image, err := tc.Build(map[string]string{"fz.f": src})
	if err != nil {
		t.Fatalf("build: %v\n%s", err, src)
	}
	cfg := machine.Tiny(np)
	rec := obs.NewRecorder(cfg)
	rec.EnableSeries(20000, nil)
	if _, err := Run(image, cfg, RunOptions{Policy: ospage.FirstTouch, Rec: rec}); err != nil {
		t.Fatalf("P=%d: %v\n%s", np, err, src)
	}
	rows := rec.SeriesRows()
	out := make([][]byte, len(rows))
	for i, r := range rows {
		out[i] = r
	}
	return out
}

// TestSeriesFuzzEngineIdentical fuzzes random programs and demands that the
// series is non-empty and that a second run reproduces it — row count,
// order, and every byte of every row.
func TestSeriesFuzzEngineIdentical(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		src := genProgram(rand.New(rand.NewSource(seed)))
		for _, np := range []int{4, 16} {
			label := fmt.Sprintf("seed=%d P=%d", seed, np)
			s := seriesRun(t, src, np)
			s2 := seriesRun(t, src, np)
			if len(s) == 0 {
				t.Errorf("%s: no series rows emitted\n%s", label, src)
				continue
			}
			if len(s) != len(s2) {
				t.Errorf("%s: repeat run emitted %d rows, first run %d", label, len(s2), len(s))
				continue
			}
			for i := range s {
				if !bytes.Equal(s[i], s2[i]) {
					t.Errorf("%s: row %d not reproducible across runs", label, i)
					break
				}
			}
		}
	}
}
