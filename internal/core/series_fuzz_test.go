package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"dsmdist/internal/exec"
	"dsmdist/internal/machine"
	"dsmdist/internal/obs"
	"dsmdist/internal/ospage"
)

// The series contract on top of the engine-equivalence contract: every
// cycle-sampled snapshot row is a pure function of the recorder event
// stream, so the rows must be byte-identical between the serial and the
// parallel engine, and across repeated runs — not just the end-of-run
// totals the main fuzz harness compares.

// seriesRun executes src under one engine with cycle sampling on and
// returns the marshaled rows.
func seriesRun(t *testing.T, src string, np int, eng exec.Engine) [][]byte {
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
	if _, err := Run(image, cfg, RunOptions{
		Policy: ospage.FirstTouch, Rec: rec, Engine: eng, Workers: 4}); err != nil {
		t.Fatalf("%v engine P=%d: %v\n%s", eng, np, err, src)
	}
	rows := rec.SeriesRows()
	out := make([][]byte, len(rows))
	for i, r := range rows {
		out[i] = r
	}
	return out
}

// TestSeriesFuzzEngineIdentical fuzzes random programs through both
// engines and demands the full series — row count, order, and every byte
// of every row — agree, and that a second parallel run reproduces it.
func TestSeriesFuzzEngineIdentical(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		src := genProgram(rand.New(rand.NewSource(seed)))
		for _, np := range []int{4, 16} {
			label := fmt.Sprintf("seed=%d P=%d", seed, np)
			s := seriesRun(t, src, np, exec.EngineSerial)
			p := seriesRun(t, src, np, exec.EngineParallel)
			p2 := seriesRun(t, src, np, exec.EngineParallel)
			if len(s) == 0 {
				t.Errorf("%s: no series rows emitted\n%s", label, src)
				continue
			}
			if len(s) != len(p) {
				t.Errorf("%s: %d rows serial, %d parallel\n%s", label, len(s), len(p), src)
				continue
			}
			for i := range s {
				if !bytes.Equal(s[i], p[i]) {
					t.Errorf("%s: row %d diverges between engines\nserial:   %s\nparallel: %s",
						label, i, s[i], p[i])
					break
				}
			}
			if len(p) != len(p2) {
				t.Errorf("%s: repeat parallel run emitted %d rows, first run %d", label, len(p2), len(p))
				continue
			}
			for i := range p {
				if !bytes.Equal(p[i], p2[i]) {
					t.Errorf("%s: row %d not reproducible across parallel runs", label, i)
					break
				}
			}
		}
	}
}
