package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"

	dsmexec "dsmdist/internal/exec"
)

// benchSpec is BENCHMARK.json.
type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func loadSpec(root string) (*benchSpec, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

// child runs one workload in a process of its own — so peak_rss_mb is that
// workload's, and one workload's heap and caches cannot help the next — and
// parses the JSON object on its last line.
func child(cfg config, name string) (*report, string, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, "", err
	}
	trace := "0"
	if cfg.trace {
		trace = "1"
	}
	args := []string{"-workload", name, "-seed", fmt.Sprint(cfg.seed), "-seconds", fmt.Sprint(cfg.seconds),
		"-trace", trace, "-out", cfg.out}
	if cfg.smoke {
		args = append(args, "-smoke")
	}
	cmd := exec.Command(self, args...)
	cmd.Dir = cfg.root
	cmd.Stderr = os.Stderr
	var out bytes.Buffer
	cmd.Stdout = &out
	runErr := cmd.Run()

	var last, ran string
	var rep report
	sc := bufio.NewScanner(&out)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "FAILED:"):
			rep.failures = append(rep.failures, strings.TrimPrefix(line, "FAILED: "))
		case strings.HasPrefix(line, "ran: "):
			ran = strings.TrimPrefix(line, "ran: ")
		}
		last = line
	}
	failures := rep.failures
	if err := json.Unmarshal([]byte(last), &rep); err != nil {
		if runErr != nil {
			return nil, "", fmt.Errorf("workload %s: %w", name, runErr)
		}
		return nil, "", fmt.Errorf("workload %s printed no result: %w", name, err)
	}
	rep.failures = failures
	return &rep, ran, nil
}

// runAll runs every workload, each in a child process, and prints every
// metric by name with its unit.
func runAll(cfg config, w io.Writer) (map[string]*report, error) {
	fmt.Fprintf(w, "host_cpus=%d gomaxprocs=%d go=%s seed=%d seconds=%g trace=%v\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), cfg.seed, cfg.seconds, cfg.trace)
	fmt.Fprintf(w, "engine auto resolves to %s on this host, tier auto to %s\n", autoEngine(), dsmexec.TierAuto.Resolve())
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	reports := map[string]*report{}
	failed := 0
	for _, name := range workloadNames {
		rep, ran, err := child(cfg, name)
		if err != nil {
			return nil, err
		}
		reports[name] = rep
		failed += rep.Failed
		fmt.Fprintf(w, "\n== %s: %s\n", name, ran)
		for _, d := range defs {
			m := rep.Metrics[d.name]
			fmt.Fprintf(w, "   %-32s %16.6g %s\n", d.name, m.Value, m.Unit)
		}
		fmt.Fprintf(w, "   %-32s %16.6g %s   (%d failed of %d attempted)\n", "ops_failed_share",
			float64(rep.Failed)/float64(rep.Attempted), "fraction", rep.Failed, rep.Attempted)
		for _, f := range rep.failures {
			fmt.Fprintf(w, "   FAILED: %s\n", f)
		}
	}
	if failed > 0 {
		return reports, fmt.Errorf("%d operations failed their checks", failed)
	}
	return reports, nil
}

func autoEngine() dsmexec.Engine {
	if runtime.GOMAXPROCS(0) > 1 {
		return dsmexec.EngineParallel
	}
	return dsmexec.EngineSerial
}

// runAgree runs the whole benchmark twice back to back — an untraced and a
// traced run of every workload each time — and holds the two sets against
// each other: every end-to-end metric within its bound, every exact count
// identical.
func runAgree(cfg config, spec *benchSpec) error {
	var sets [2]struct{ e2e, layer map[string]*report }
	for i := range sets {
		var err error
		cfg.trace = false
		if sets[i].e2e, err = runAll(cfg, io.Discard); err != nil {
			return err
		}
		cfg.trace = true
		if sets[i].layer, err = runAll(cfg, io.Discard); err != nil {
			return err
		}
	}
	bad := 0
	fmt.Printf("%-16s %-14s %14s %14s %9s %7s\n", "workload", "metric", "first", "second", "change", "")
	for _, name := range workloadNames {
		for _, m := range spec.EndToEnd {
			a, b := sets[0].e2e[name].Metrics[m.Name].Value, sets[1].e2e[name].Metrics[m.Name].Value
			worse := (b - a) / a
			if m.Better == "higher" {
				worse = (a - b) / a
			}
			verdict := "PASS"
			if worse > m.Bound {
				verdict = "FAIL"
				bad++
			}
			fmt.Printf("%-16s %-14s %14.6g %14.6g %+8.2f%% %7s (bound %.0f%%)\n", name, m.Name, a, b, 100*(b-a)/a, verdict, 100*m.Bound)
		}
		for _, ex := range exactLayer {
			a, b := sets[0].layer[name].Metrics[ex].Value, sets[1].layer[name].Metrics[ex].Value
			if a != b {
				fmt.Printf("%-16s %-14s %14.0f %14.0f  exact count differs\n", name, ex, a, b)
				bad++
			}
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d comparisons failed", bad)
	}
	fmt.Println("every end-to-end metric within its bound, every exact count identical")
	return nil
}

// regenGolden rewrites bench/golden under the oracle configuration: serial
// engine, classic tier, run-batched memory path off. It is the only way the
// golden files change.
func regenGolden(root string) error {
	os.Setenv("DSM_MEMRUN", "off") // read by memsim.New; the only switch for the run path
	oracle := runOpts{engine: dsmexec.EngineSerial, tier: dsmexec.TierClassic}
	families := map[string][]simPoint{}
	for _, name := range []string{"lu_ladder", "transpose_sweep", "conv_sweep", "engine_auto"} {
		for _, sc := range []struct {
			s    simScale
			full bool
		}{{fullSim, true}, {smokeSim, false}} {
			for _, g := range simDefFor(name, sc.s, sc.full).groups {
				families[name] = append(families[name], g.points...)
			}
		}
	}
	for _, sc := range []dsmdScale{fullDsmd, smokeDsmd} {
		jobs, fresh := population(sc)
		for _, j := range append(jobs, fresh...) {
			families["dsmd"] = append(families["dsmd"], j.pt)
		}
	}
	for family, points := range families {
		g := &golden{path: goldenPath(root, family), points: map[string]simCounts{}}
		for i := range points {
			res, err := points[i].staged(nil, nil, oracle)
			if err != nil {
				return err
			}
			if res.RT.Sys.MemRunEnabled() {
				return fmt.Errorf("oracle run of %q had the run-batched memory path on", points[i].label)
			}
			g.points[points[i].label] = countsOfResult(res)
		}
		if err := g.write(); err != nil {
			return err
		}
		fmt.Printf("wrote %s (%d points)\n", g.path, len(g.points))
	}
	return nil
}
