// Benchmarks regenerating the paper's evaluation (§8), one per table and
// figure. Each benchmark runs the corresponding experiment at the Quick
// scale and reports the simulated results as custom metrics:
//
//	sim-cycles       simulated execution time of the measured section
//	sim-speedup      speedup over the serial build (figures)
//	host-ms/sweep    host wall time of one whole sweep (all points)
//	host-ms/point    host wall time per sweep point (mean)
//
// The sim-* metrics are properties of the simulated machine and must never
// move under host-side optimization; the host-* metrics are a quick look at
// harness performance. The standing measurement of host performance is
// bench/ (see BENCHMARK.json), not these.
//
// cmd/dsmbench runs the same experiments at full (paper/16) scale;
// EXPERIMENTS.md records those results against the paper's.
package main

import (
	"fmt"
	"testing"

	"dsmdist/internal/experiments"
)

// benchRows runs an experiment once per b.N and reports the last rows.
func benchRows(b *testing.B, fn func(experiments.Sizes) ([]experiments.Row, error), s experiments.Sizes) []experiments.Row {
	b.Helper()
	var rows []experiments.Row
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = fn(s)
		if err != nil {
			b.Fatal(err)
		}
	}
	var wall float64
	for _, r := range rows {
		wall += r.WallMS
	}
	b.ReportMetric(wall, "host-ms/sweep")
	if len(rows) > 0 {
		b.ReportMetric(wall/float64(len(rows)), "host-ms/point")
	}
	return rows
}

// BenchmarkTable2 reproduces Table 2: the reshape-optimization ablation on
// the LU kernel, one processor.
func BenchmarkTable2(b *testing.B) {
	s := experiments.Quick()
	rows := benchRows(b, experiments.Table2, s)
	for _, r := range rows {
		b.ReportMetric(float64(r.Cycles), "sim-cycles-"+shortLabel(r.Variant))
	}
}

func shortLabel(v string) string {
	switch v {
	case "reshape, no optimizations":
		return "noopt"
	case "reshape, tile and peel":
		return "tilepeel"
	case "reshape, tile and peel, hoist":
		return "hoist"
	case "reshape, all optimizations":
		return "full"
	case "original without reshaping":
		return "original"
	}
	return v
}

// figBench runs a figure experiment and reports per-variant speedups at the
// largest processor count.
func figBench(b *testing.B, fn func(experiments.Sizes) ([]experiments.Row, error)) {
	s := experiments.Quick()
	rows := benchRows(b, fn, s)
	maxP := 0
	for _, r := range rows {
		if r.P > maxP {
			maxP = r.P
		}
	}
	for _, r := range rows {
		if r.P == maxP {
			b.ReportMetric(r.Speedup, fmt.Sprintf("sim-speedup-%s-p%d", r.Variant, r.P))
		}
	}
}

// BenchmarkFig4 reproduces Figure 4: NAS-LU speedups under the four
// placement strategies.
func BenchmarkFig4(b *testing.B) { figBench(b, experiments.Fig4) }

// BenchmarkFig5 reproduces Figure 5: matrix-transpose speedups.
func BenchmarkFig5(b *testing.B) { figBench(b, experiments.Fig5) }

// BenchmarkFig6 reproduces Figure 6: 2-D convolution, small input, one- and
// two-level parallelism.
func BenchmarkFig6(b *testing.B) { figBench(b, experiments.Fig6) }

// BenchmarkFig7 reproduces Figure 7: 2-D convolution, large input.
func BenchmarkFig7(b *testing.B) { figBench(b, experiments.Fig7) }

// TestFigureShapes asserts the paper's qualitative results hold at Quick
// scale (the full-scale record lives in EXPERIMENTS.md):
//
//   - Figure 5 (transpose): reshaping wins and first-touch loses at the
//     largest processor count ("the reshaped version obtains the best
//     performance", §8.2).
//   - Table 2: each optimization level improves on the previous, and fully
//     optimized reshaping is within a few percent of the original
//     non-reshaped code.
func TestFigureShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment sweep")
	}
	s := experiments.Quick()
	s.TransIters = 4

	rows, err := experiments.Fig5(s)
	if err != nil {
		t.Fatal(err)
	}
	maxP := 0
	at := map[string]experiments.Row{}
	for _, r := range rows {
		if r.P > maxP {
			maxP = r.P
		}
	}
	for _, r := range rows {
		if r.P == maxP {
			at[r.Variant] = r
		}
	}
	if at["reshaped"].Speedup <= at["first-touch"].Speedup {
		t.Errorf("fig5 shape: reshaped (%.2fx) must beat first-touch (%.2fx) at P=%d",
			at["reshaped"].Speedup, at["first-touch"].Speedup, maxP)
	}
	if at["reshaped"].Speedup <= at["round-robin"].Speedup {
		t.Errorf("fig5 shape: reshaped (%.2fx) must beat round-robin (%.2fx) at P=%d",
			at["reshaped"].Speedup, at["round-robin"].Speedup, maxP)
	}

	t2, err := experiments.Table2(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(t2) != 5 {
		t.Fatalf("table2 rows = %d", len(t2))
	}
	for i := 1; i < 4; i++ {
		if t2[i].Cycles > t2[i-1].Cycles {
			t.Errorf("table2 not monotone: %q (%d) worse than %q (%d)",
				t2[i].Variant, t2[i].Cycles, t2[i-1].Variant, t2[i-1].Cycles)
		}
	}
	full, orig := float64(t2[3].Cycles), float64(t2[4].Cycles)
	if full > orig*1.15 {
		t.Errorf("table2: optimized reshape (%.0f) should be within ~15%% of original (%.0f)", full, orig)
	}
}
