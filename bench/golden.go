package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"dsmdist/internal/core"
	"dsmdist/internal/exec"
	"dsmdist/internal/experiments"
	"dsmdist/internal/memsim"
)

// simCounts is every simulated field of one point: what a golden file
// stores and what every run of that point must reproduce exactly.
type simCounts struct {
	Cycles  int64            `json:"cycles"`
	Instrs  int64            `json:"instrs"`
	HwDiv   int64            `json:"hw_div"`
	SoftDiv int64            `json:"soft_div"`
	Stats   memsim.ProcStats `json:"stats"`
}

// measured is the region-of-interest rule of the experiment harness: the
// dsm_timer section when the program used the timer, total cycles otherwise.
func measured(timer, total int64) int64 {
	if timer > 0 {
		return timer
	}
	return total
}

func countsOfResult(r *exec.Result) simCounts {
	return simCounts{Cycles: measured(r.TimerCycles, r.Cycles), Instrs: r.Instrs,
		HwDiv: r.HwDiv, SoftDiv: r.SoftDiv, Stats: r.Total}
}

func countsOfRow(r experiments.Row) simCounts {
	return simCounts{Cycles: r.Cycles, Instrs: r.Instrs, HwDiv: r.HwDiv, SoftDiv: r.SoftDiv, Stats: r.Stats}
}

func countsOfDoc(d *core.ResultDoc) simCounts {
	return simCounts{Cycles: d.Measured(), Instrs: d.Instrs, HwDiv: d.HwDiv, SoftDiv: d.SoftDiv, Stats: d.Total}
}

// golden is one bench/golden/<family>.json file: point label -> counts.
type golden struct {
	path   string
	points map[string]simCounts
}

func goldenPath(root, family string) string {
	return filepath.Join(root, "bench", "golden", family+".json")
}

func loadGolden(root, family string) (*golden, error) {
	g := &golden{path: goldenPath(root, family), points: map[string]simCounts{}}
	data, err := os.ReadFile(g.path)
	if err != nil {
		return nil, fmt.Errorf("golden: %w (run with -regen-golden to create it)", err)
	}
	if err := json.Unmarshal(data, &g.points); err != nil {
		return nil, fmt.Errorf("golden %s: %w", g.path, err)
	}
	return g, nil
}

// check counts one op and fails it, naming the point, unless got equals the
// golden counts.
func (g *golden) check(chk *checker, label string, got simCounts) {
	want, ok := g.points[label]
	switch {
	case !ok:
		chk.op(false, "point %q is not in %s", label, g.path)
	case got != want:
		chk.op(false, "point %q differs from golden: got cycles=%d instrs=%d l2_miss=%d, want cycles=%d instrs=%d l2_miss=%d",
			label, got.Cycles, got.Instrs, got.Stats.L2Miss, want.Cycles, want.Instrs, want.Stats.L2Miss)
	default:
		chk.op(true, "")
	}
}

// write stores the golden file; encoding/json sorts map keys, so the bytes
// are a pure function of the points.
func (g *golden) write() error {
	data, err := json.MarshalIndent(g.points, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(g.path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(g.path, append(data, '\n'), 0o644)
}
