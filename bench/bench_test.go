package main

import (
	"strings"
	"testing"
)

// smokeRun runs one workload in this process at the smoke scale.
func smokeRun(t *testing.T, name string, seed int64, trace bool) *report {
	t.Helper()
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := runWorkload(config{workload: name, seed: seed, smoke: true, trace: trace, root: root})
	if err != nil {
		t.Fatalf("%s (seed %d, trace %v): %v", name, seed, trace, err)
	}
	if rep.Failed != 0 || !rep.Correct {
		t.Errorf("%s (seed %d, trace %v): %d of %d operations failed: %v", name, seed, trace, rep.Failed, rep.Attempted, rep.failures)
	}
	return rep
}

// sameNames fails unless the run printed exactly the metrics BENCHMARK.json
// declares, with the declared units.
func sameNames(t *testing.T, what string, got map[string]reported, want []specMetric) {
	t.Helper()
	declared := map[string]string{}
	for _, m := range want {
		declared[m.Name] = m.Unit
		if _, ok := got[m.Name]; !ok {
			t.Errorf("%s: BENCHMARK.json declares %q, the run did not print it", what, m.Name)
		}
	}
	for name, m := range got {
		if unit, ok := declared[name]; !ok {
			t.Errorf("%s: the run printed %q, BENCHMARK.json does not declare it", what, name)
		} else if unit != m.Unit {
			t.Errorf("%s: %q printed in %q, declared in %q", what, name, m.Unit, unit)
		}
	}
}

// TestSmoke runs every workload at the smoke scale, untraced and traced,
// and checks the printed names against BENCHMARK.json and the exact counts
// against a second run — under another seed where the seed fixes only an
// order (every workload: the population and the corpus are fixed sets).
func TestSmoke(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	spec, err := loadSpec(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloadNames) {
		t.Errorf("BENCHMARK.json lists %d workloads, the runner has %d", len(spec.Workloads), len(workloadNames))
	}
	for i, name := range workloadNames {
		if i < len(spec.Workloads) && spec.Workloads[i].Name != name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the runner", i, spec.Workloads[i].Name, name)
		}
		t.Run(name, func(t *testing.T) {
			e2e := smokeRun(t, name, 1, false)
			sameNames(t, name+" end to end", e2e.Metrics, spec.EndToEnd)
			for _, m := range spec.EndToEnd {
				if e2e.Metrics[m.Name].Value <= 0 {
					t.Errorf("%s: end-to-end metric %s is %v, want > 0", name, m.Name, e2e.Metrics[m.Name].Value)
				}
			}
			first := smokeRun(t, name, 1, true)
			sameNames(t, name+" per layer", first.Metrics, spec.PerLayer)
			second := smokeRun(t, name, 2, true)
			for _, ex := range exactLayer {
				if a, b := first.Metrics[ex].Value, second.Metrics[ex].Value; a != b {
					t.Errorf("%s: exact count %s is %v under seed 1 and %v under seed 2", name, ex, a, b)
				}
			}
		})
	}
}

// TestGoldenMismatchIsNamed: a golden count changed by hand fails the run
// and names the point.
func TestGoldenMismatchIsNamed(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	e := &env{cfg: config{workload: "lu_ladder", smoke: true, root: root}, chk: &checker{}}
	w := newSimWorkload(e, "lu_ladder")
	if err := w.setup(); err != nil {
		t.Fatal(err)
	}
	label := w.def.groups[0].points[2].label
	c := w.gold.points[label]
	c.Cycles++
	w.gold.points[label] = c
	before := e.chk.failed
	if _, err := w.pass(nil); err != nil {
		t.Fatal(err)
	}
	if e.chk.failed != before+1 {
		t.Fatalf("%d operations failed after one golden count was changed, want 1", e.chk.failed-before)
	}
	if msg := e.chk.msgs[len(e.chk.msgs)-1]; !strings.Contains(msg, label) {
		t.Errorf("failure %q does not name the point %q", msg, label)
	}
}

// TestRefusesOverrides: the runner does not start with a DSM_* switch set.
func TestRefusesOverrides(t *testing.T) {
	for _, name := range []string{"DSM_ENGINE", "DSM_TIER", "DSM_MEMRUN", "DSM_WORKERS"} {
		t.Run(name, func(t *testing.T) {
			t.Setenv(name, "1")
			if code := realMain([]string{"-workload", "lu_ladder", "-smoke"}); code == 0 {
				t.Errorf("runner started with %s set", name)
			}
		})
	}
}

func TestPercentiles(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 6, 7, 8, 9, 10}
	if got := median(xs); got != 5.5 {
		t.Errorf("median = %v, want 5.5", got)
	}
	for q, want := range map[float64]float64{50: 5, 90: 9, 99: 10, 100: 10} {
		if got := percentile(xs, q); got != want {
			t.Errorf("p%v = %v, want %v", q, got, want)
		}
	}
}
