// Command bench is the repository's standing benchmark: seven workloads,
// each run in its own process, reporting the end-to-end metrics a user of
// the toolchain, the simulator and the dsmd service waits on, and — from a
// separate traced run — a per-layer table measured by timing calls into
// each layer's public functions. Every simulated result is checked against
// bench/golden and against references the code under test did not produce
// alone. README.md in this directory says why each workload is there and
// which layer metric should move which end-to-end metric.
//
//	bash bench/run.sh                      every workload, end-to-end table
//	bash bench/run.sh -trace 1             every workload, per-layer table
//	bash bench/run.sh -workload W -seed N -seconds S -trace 0|1
//	                                       one workload; last line is JSON
//	bash bench/run.sh -agree               two runs, compared with the bounds
//	bash bench/run.sh -regen-golden        rewrite bench/golden (oracle config)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	smoke    bool
	out      string
	root     string
}

// checker counts operations and the ones that failed a check.
type checker struct {
	attempted, failed int
	msgs              []string
}

// op counts one operation; when ok is false it is a failed one, and the
// message names it.
func (c *checker) op(ok bool, format string, args ...any) {
	c.attempted++
	if !ok {
		c.failed++
		if len(c.msgs) < 20 {
			c.msgs = append(c.msgs, fmt.Sprintf(format, args...))
		}
	}
}

// env is what a workload sees of the run. scratch is a directory inside
// the checkout that lives as long as the run; the runner removes it.
type env struct {
	cfg     config
	chk     *checker
	scratch string
}

// passStat is one pass: its wall time, the latency of every operation in
// it, and the counts the pass's own metrics are made of.
type passStat struct {
	wall                float64   // s
	opMS                []float64 // ms per operation; entry i is the same operation in every pass
	unordered           bool      // ... unless the pass draws its operations at random (dsmd_warm)
	instrs              int64     // simulated bytecode instructions
	committed, fallback int64     // parallel-engine epochs (traced pass)
	codeInstrs          int64     // generated instructions (toolchain_cold)
	gobBytes            int64
}

// workload is one of the seven. setup is timed as setup_s and is followed
// by teardown before it is called again; pass(nil) is the untraced pass and
// pass(tr) the traced one; layers fills the per-layer metrics after the
// traced pass.
type workload interface {
	setupReps() int
	setup() error
	teardown()
	pass(tr *tracer) (passStat, error)
	layers(tr *tracer, traced passStat, m map[string]float64) error
	describe() string
}

func newWorkload(e *env) (workload, error) {
	switch e.cfg.workload {
	case "lu_ladder", "transpose_sweep", "conv_sweep", "engine_auto":
		return newSimWorkload(e, e.cfg.workload), nil
	case "toolchain_cold":
		return &toolchainWorkload{e: e}, nil
	case "dsmd_cold":
		return &dsmdCold{dsmdBase: dsmdBase{e: e}}, nil
	case "dsmd_warm":
		return &dsmdWarm{dsmdBase: dsmdBase{e: e}}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (accepted: %s)", e.cfg.workload, strings.Join(workloadNames, ", "))
}

// report is the outcome of one workload run.
type report struct {
	Correct   bool                `json:"correct"`
	Attempted int                 `json:"attempted"`
	Failed    int                 `json:"failed"`
	Metrics   map[string]reported `json:"metrics"`

	failures []string
	passes   int
	samples  int
	desc     string
}

type reported struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// passesFor runs untraced passes until budget seconds have gone; always at
// least one. It stops early when another pass would overshoot by more than
// half a pass.
func passesFor(w workload, budget float64) ([]passStat, error) {
	var out []passStat
	start := time.Now()
	for {
		ps, err := w.pass(nil)
		if err != nil {
			return nil, err
		}
		out = append(out, ps)
		if time.Since(start).Seconds()+ps.wall/2 >= budget {
			return out, nil
		}
	}
}

// latencyPercentile is the q-th percentile of operation latency over the
// passes of a run. Where entry i of every pass is the same operation, each
// operation's latency is first taken as its median over the passes, so one
// pre-empted operation in one pass cannot set the tail; where a pass draws
// its operations at random, the percentile is taken per pass and the median
// over passes reported.
func latencyPercentile(passes []passStat, q float64) float64 {
	if passes[0].unordered {
		var per []float64
		for _, ps := range passes {
			per = append(per, percentile(ps.opMS, q))
		}
		return median(per)
	}
	ops := make([]float64, len(passes[0].opMS))
	across := make([]float64, len(passes))
	for i := range ops {
		for p, ps := range passes {
			across[p] = ps.opMS[i]
		}
		ops[i] = median(across)
	}
	return percentile(ops, q)
}

func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// runWorkload runs one workload in this process.
func runWorkload(cfg config) (*report, error) {
	e := &env{cfg: cfg, chk: &checker{},
		scratch: filepath.Join(cfg.root, ".bench_build", "tmp", fmt.Sprintf("%s-%d", cfg.workload, os.Getpid()))}
	w, err := newWorkload(e)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(e.scratch)
	defer w.teardown()

	reps := w.setupReps()
	if cfg.smoke {
		reps = 1
	}
	var setups []float64
	for i := 0; i < reps; i++ {
		if i > 0 {
			w.teardown()
		}
		t0 := time.Now()
		if err := w.setup(); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	budget := cfg.seconds
	if cfg.trace {
		// Half the time gives the untraced median the traced pass is
		// compared with; the traced pass and the probes take the rest.
		budget /= 2
	}
	passes, err := passesFor(w, budget)
	if err != nil {
		return nil, err
	}
	var walls, rates []float64
	var instrs int64
	rep := &report{Metrics: map[string]reported{}, passes: len(passes)}
	for _, ps := range passes {
		walls = append(walls, ps.wall)
		rates = append(rates, float64(len(ps.opMS))/ps.wall)
		rep.samples += len(ps.opMS)
		instrs = ps.instrs
	}

	values := map[string]float64{}
	defs := endToEnd
	if !cfg.trace {
		values["wall_s"] = median(walls)
		values["ops_per_s"] = median(rates)
		for _, q := range []float64{50, 90, 99} {
			values[fmt.Sprintf("op_ms_p%.0f", q)] = latencyPercentile(passes, q)
		}
		values["setup_s"] = median(setups)
	} else {
		defs = perLayer
		// Traced passes repeat, up to three, while they fit in a quarter of
		// the time; the layer table is read off the last one and the
		// overhead off the median wall. The probes take the rest.
		var tr *tracer
		var traced passStat
		var tracedWalls []float64
		for start := time.Now(); len(tracedWalls) < 3 && (tr == nil || time.Since(start).Seconds() < budget/2); {
			tr = newTracer()
			if traced, err = w.pass(tr); err != nil {
				return nil, fmt.Errorf("traced pass: %w", err)
			}
			tracedWalls = append(tracedWalls, traced.wall)
		}
		values["host.peak_rss_mb"] = peakRSSMiB() // before the probes allocate
		if err := w.layers(tr, traced, values); err != nil {
			return nil, fmt.Errorf("layer probes: %w", err)
		}
		values["trace.overhead_pct"] = pct(median(tracedWalls), median(walls)) - 100
		values["host.sim_minstr_per_s"] = float64(instrs) / 1e6 / median(walls)
		if cfg.out != "" {
			if err := tr.write(cfg.out, cfg.workload); err != nil {
				return nil, err
			}
		}
	}
	rep.desc = w.describe()
	w.teardown()

	for _, d := range defs {
		rep.Metrics[d.name] = reported{Value: values[d.name], Unit: d.unit}
		delete(values, d.name)
	}
	for name := range values {
		return nil, fmt.Errorf("metric %q is measured but not declared in metrics.go", name)
	}
	rep.Attempted, rep.Failed, rep.failures = e.chk.attempted, e.chk.failed, e.chk.msgs
	rep.Correct = rep.Failed == 0
	return rep, nil
}

// findRoot walks up from the working directory to the checkout root, the
// directory that holds BENCHMARK.json.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no BENCHMARK.json in the working directory or above it")
		}
		dir = parent
	}
}

// overrides lists the environment switches that would make the run measure
// something other than the default configuration.
func overrides() []string {
	var set []string
	for _, name := range []string{"DSM_ENGINE", "DSM_TIER", "DSM_MEMRUN", "DSM_WORKERS"} {
		if v, ok := os.LookupEnv(name); ok {
			set = append(set, name+"="+v)
		}
	}
	return set
}

// splitTraceArg lets "-trace 0" and "-trace 1" (value as its own argument,
// the way the driver passes it) work beside a bare "-trace".
func splitTraceArg(args []string) []string {
	var out []string
	for i := 0; i < len(args); i++ {
		a := args[i]
		if (a == "-trace" || a == "--trace") && i+1 < len(args) && (args[i+1] == "0" || args[i+1] == "1") {
			out = append(out, "-trace="+args[i+1])
			i++
			continue
		}
		out = append(out, a)
	}
	return out
}

func main() {
	os.Exit(realMain(os.Args[1:]))
}

func realMain(args []string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var cfg config
	fs.StringVar(&cfg.workload, "workload", "", "run only this workload, in this process, and end with one JSON line")
	fs.Int64Var(&cfg.seed, "seed", 1, "seed of every generated choice (request order, corpus order)")
	fs.Float64Var(&cfg.seconds, "seconds", 0, "seconds one run measures for (default: run_seconds of BENCHMARK.json)")
	fs.BoolVar(&cfg.trace, "trace", false, "traced run: per-layer metrics instead of end-to-end ones")
	fs.BoolVar(&cfg.smoke, "smoke", false, "smoke scale: tiny inputs, one pass")
	fs.StringVar(&cfg.out, "out", "", "directory the traced run writes its spans to (default .bench_build/trace)")
	regen := fs.Bool("regen-golden", false, "rewrite bench/golden under the oracle configuration and exit")
	agree := fs.Bool("agree", false, "run the untraced benchmark twice and compare the two runs with the bounds")
	if err := fs.Parse(splitTraceArg(args)); err != nil {
		return 2
	}
	if set := overrides(); len(set) > 0 {
		fmt.Fprintf(os.Stderr, "bench: refusing to run with %s set: the benchmark measures the default configuration\n", strings.Join(set, ", "))
		return 2
	}
	root, err := findRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	cfg.root = root
	spec, err := loadSpec(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	secondsSet := false
	fs.Visit(func(f *flag.Flag) { secondsSet = secondsSet || f.Name == "seconds" })
	if !secondsSet && !cfg.smoke {
		cfg.seconds = float64(spec.RunSeconds)
	}
	if cfg.out == "" {
		cfg.out = filepath.Join(root, ".bench_build", "trace")
	}

	switch {
	case *regen:
		err = regenGolden(root)
	case *agree:
		err = runAgree(cfg, spec)
	case cfg.workload == "":
		_, err = runAll(cfg, os.Stdout)
	default:
		return runOne(cfg)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	return 0
}

// runOne is the single-workload mode the driver uses: host facts and any
// failed checks on the lines above, one JSON object on the last line.
func runOne(cfg config) int {
	fmt.Printf("host_cpus=%d gomaxprocs=%d go=%s workload=%s seed=%d seconds=%g trace=%v\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), cfg.workload, cfg.seed, cfg.seconds, cfg.trace)
	rep, err := runWorkload(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Printf("ran: %s; %d passes, %d latency samples\n", rep.desc, rep.passes, rep.samples)
	for _, f := range rep.failures {
		fmt.Println("FAILED:", f)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !rep.Correct {
		return 1
	}
	return 0
}
