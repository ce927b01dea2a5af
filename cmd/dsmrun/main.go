// dsmrun executes a compiled image (or compiles sources on the fly) on the
// simulated Origin-2000 and reports time and memory-system statistics.
//
// Usage:
//
//	dsmrun [flags] prog.img
//	dsmrun [flags] main.f [more.f ...]
//
// Flags:
//
//	-p N          processors (default 1)
//	-policy P     first-touch (ft) | round-robin (rr) (default first-touch).
//	              The policy only governs pages NOT claimed by a
//	              distribution directive: arrays under c$distribute get
//	              explicit regular placement and c$distribute_reshape
//	              arrays live in per-processor pools, regardless of this
//	              flag (paper §4.2/§4.3). Unknown names are rejected with
//	              the accepted set.
//	-machine M    origin2000 | scaled | tiny (default scaled)
//	-stats        print per-processor counters
//	-arrays       print the final contents of small arrays (<= 64 elements)
//	-trace FILE   write a Chrome trace_event timeline (chrome://tracing)
//	-prof         print a dsmprof-style profile after the run
//	-max-quanta N raise the runaway-loop guard (scheduling rounds before
//	              the run is aborted as an infinite loop)
//	-json         print the run's statistics as JSON instead of text
//	              (a schema-versioned document, "v": 1)
//	-remote URL   submit the job to a dsmd simulation service instead of
//	              building and running locally. The service's result cache
//	              is content-addressed (core.JobKey), so a repeated job is
//	              served without simulating, byte-identical to the local
//	              -json output. Sources only (no .img), and the host-side
//	              observability flags (-trace/-serve/-series/-prof/
//	              -cpuprofile/-memprofile) do not apply
//	-cpuprofile F write a host CPU profile to F (go tool pprof)
//	-memprofile F write a host heap profile to F at exit
//
// Live observability (all host-side: none of these change a simulated
// cycle — the run's -json output is byte-identical with or without them):
//
//	-serve ADDR   serve /snapshot, /series, /trace and an HTML dashboard
//	              while the run executes; keeps serving after the run
//	              finishes until interrupted
//	-series FILE  append cycle-sampled snapshot rows to FILE as JSONL
//	-sample N     snapshot every N simulated cycles (default 250000)
//	-trace-events N  cap the in-memory trace buffer (default 1<<20, or
//	              the DSM_TRACE_EVENTS environment variable). With -trace
//	              the events stream to FILE.spool as the run progresses and
//	              the cap only bounds staging memory; an interrupted run is
//	              finalized from the spool into a loadable partial trace.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"

	"dsmdist/internal/codegen"
	"dsmdist/internal/core"
	"dsmdist/internal/exec"
	"dsmdist/internal/machine"
	"dsmdist/internal/obs"
	"dsmdist/internal/ospage"
	"dsmdist/internal/service"
)

func main() {
	procs := flag.Int("p", 1, "number of processors")
	policyName := flag.String("policy", "first-touch",
		"default page policy, one of: "+ospage.PolicyNames)
	machName := flag.String("machine", "scaled", "machine: origin2000 | scaled | tiny")
	stats := flag.Bool("stats", false, "print per-processor statistics")
	arrays := flag.Bool("arrays", false, "print final contents of small arrays")
	traceOut := flag.String("trace", "", "write Chrome trace-event JSON to file")
	prof := flag.Bool("prof", false, "print a profile breakdown after the run")
	maxQuanta := flag.Int64("max-quanta", 0, "runaway-loop guard: max scheduling rounds (0 = default)")
	jsonOut := flag.Bool("json", false, "print statistics as JSON")
	remote := flag.String("remote", "", "submit to a dsmd service at this URL instead of running locally")
	cpuProfile := flag.String("cpuprofile", "", "write host CPU profile to file")
	memProfile := flag.String("memprofile", "", "write host heap profile to file at exit")
	serveAddr := flag.String("serve", "", "serve live run views on this address (e.g. :8080)")
	seriesOut := flag.String("series", "", "append cycle-sampled snapshot rows to this JSONL file")
	sample := flag.Int64("sample", 0, "snapshot sampling interval in simulated cycles (0 = default)")
	traceEvents := flag.Int("trace-events", 0, "in-memory trace event cap (0 = default/env)")
	flag.Parse()

	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "dsmrun: no input")
		os.Exit(2)
	}

	mach, err := machine.Preset(*machName)
	die(err)
	cfg := mach(*procs)
	policy, err := ospage.ParsePolicy(*policyName)
	die(err)

	if *remote != "" {
		runRemote(*remote, *machName, *procs, *policyName, *jsonOut, flag.Args())
		return
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		die(err)
		die(pprof.StartCPUProfile(f))
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			die(err)
			runtime.GC()
			die(pprof.WriteHeapProfile(f))
			f.Close()
		}()
	}

	// The observability layer is only attached when asked for, keeping
	// plain runs on the untraced fast path.
	var rec *obs.Recorder
	if *traceOut != "" || *prof || *serveAddr != "" || *seriesOut != "" {
		rec = obs.NewRecorder(cfg)
		if *traceOut != "" || *serveAddr != "" {
			rec.EnableTrace(*traceEvents)
		}
	}

	// Incremental trace export: events spool to disk as the run goes, so
	// an interrupt still leaves a finalizable partial trace. -serve gets a
	// spool too (backing /trace) even without -trace, parked in tmp.
	var ts *obs.TraceStream
	var spool *obs.SpoolSink
	if *traceOut != "" {
		var err error
		ts, err = obs.StreamTraceToFile(rec, *traceOut)
		die(err)
		spool = ts.Spool
	} else if *serveAddr != "" {
		tmp := filepath.Join(os.TempDir(), fmt.Sprintf("dsmrun-%d.spool", os.Getpid()))
		sink, err := obs.NewSpoolSink(tmp)
		die(err)
		rec.SetTraceSink(sink)
		spool = sink
	}

	// Cycle-sampled snapshot series: always on under -serve (it feeds
	// /snapshot and /series), optionally persisted with -series.
	if *seriesOut != "" || *serveAddr != "" {
		var w *os.File
		if *seriesOut != "" {
			var err error
			w, err = os.Create(*seriesOut)
			die(err)
		}
		if w != nil {
			rec.EnableSeries(*sample, w)
		} else {
			rec.EnableSeries(*sample, nil)
		}
	}

	// Serve the live views while the run executes.
	if *serveAddr != "" {
		ln, err := obs.NewLiveServer(rec, spool).Serve(*serveAddr)
		die(err)
		fmt.Fprintf(os.Stderr, "dsmrun: serving live run on http://%s/\n", ln.Addr())
	}

	// On interrupt, finalize the partial trace from the spool before
	// exiting: the whole point of streaming is that Ctrl-C mid-run still
	// leaves loadable output.
	if *traceOut != "" {
		sigc := make(chan os.Signal, 1)
		signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
		go func() {
			<-sigc
			if err := ts.Finalize(); err == nil {
				fmt.Fprintf(os.Stderr, "dsmrun: interrupted; partial trace finalized to %s\n", *traceOut)
			}
			os.Exit(130)
		}()
	}

	var res *codegen.Result
	if strings.HasSuffix(flag.Arg(0), ".img") {
		f, err := os.Open(flag.Arg(0))
		die(err)
		res, err = codegen.DecodeImage(f)
		die(err)
		f.Close()
	} else {
		tc := core.New()
		tc.Rec = rec
		srcs := map[string]string{}
		for _, a := range flag.Args() {
			data, err := os.ReadFile(a)
			die(err)
			srcs[a] = string(data)
		}
		img, err := tc.Build(srcs)
		die(err)
		res = img.Res
	}

	run, err := exec.Run(res, cfg, exec.Options{Policy: policy, Rec: rec, MaxQuanta: *maxQuanta})
	die(err)

	// Normal exit: Recorder.Finish drained the stream at the final clock;
	// finalize the spool into the loadable trace.
	if *traceOut != "" {
		die(ts.Finalize())
	}

	if *jsonOut {
		die(writeJSON(os.Stdout, cfg, policy, run))
		serveWait(*serveAddr)
		return
	}

	fmt.Printf("machine: %s, %d processors (%d nodes), policy %s\n",
		cfg.Name, cfg.NProcs, cfg.NNodes(), policy)
	fmt.Printf("cycles:  %d (%.6f s at %d MHz)\n", run.Cycles, run.Seconds(), cfg.ClockMHz)
	if run.TimerCycles > 0 {
		fmt.Printf("timed section: %d cycles (%.6f s)\n",
			run.TimerCycles, cfg.Seconds(run.TimerCycles))
	}
	t := run.Total
	fmt.Printf("loads %d  stores %d  L1miss %d  L2miss %d (local %d remote %d)  TLBmiss %d\n",
		t.Loads, t.Stores, t.L1Miss, t.L2Miss, t.L2MissLocal, t.L2MissRemote, t.TLBMiss)
	fmt.Printf("invalidations %d  interventions %d  mem-wait %d cyc  divides hw=%d soft=%d\n",
		t.InvSent, t.Interventions, t.WaitCyc, run.HwDiv, run.SoftDiv)
	fmt.Printf("pages: %d mapped (%d first-touch, %d round-robin, %d placed, %d migrated, %d spilled)\n",
		run.Pages.Mapped, run.Pages.FirstTouch, run.Pages.RoundRobin,
		run.Pages.Placed, run.Pages.Migrated, run.Pages.Spilled)

	if *stats {
		for p := 0; p < cfg.NProcs; p++ {
			s := run.Stats[p]
			fmt.Printf("  proc %3d: loads %10d  L2miss %8d  remote %8d  tlb %8d  wait %10d\n",
				p, s.Loads, s.L2Miss, s.L2MissRemote, s.TLBMiss, s.WaitCyc)
		}
		fmt.Println("per-array L2-miss traffic:")
		for _, st := range run.RT.Arrays {
			fmt.Printf("  %-20s %10d misses\n", st.Plan.Unit+"."+st.Plan.Name, run.RT.Traffic(st))
		}
	}
	if *arrays {
		for _, st := range run.RT.Arrays {
			n := st.TotalElems()
			if n > 64 {
				fmt.Printf("  %s.%s: %d elements (not printed)\n", st.Plan.Unit, st.Plan.Name, n)
				continue
			}
			fmt.Printf("  %s.%s = %v\n", st.Plan.Unit, st.Plan.Name, run.RT.Gather(st))
		}
	}
	if *prof {
		fmt.Println()
		die(rec.Summarize(10).WriteText(os.Stdout))
	}
	if *traceOut != "" {
		fmt.Printf("trace: wrote %d events to %s (open in chrome://tracing)\n",
			rec.TraceCount(), *traceOut)
	}
	if *seriesOut != "" {
		fmt.Printf("series: wrote %d snapshot rows to %s\n",
			len(rec.SeriesRows()), *seriesOut)
	}
	serveWait(*serveAddr)
}

// serveWait keeps the live endpoints up after the run until interrupted,
// so a dashboard or curl can still read the finished run's views.
func serveWait(addr string) {
	if addr == "" {
		return
	}
	fmt.Fprintln(os.Stderr, "dsmrun: run finished; still serving — interrupt to exit")
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	<-sigc
}

// writeJSON emits the run's simulated statistics as the canonical
// schema-versioned result document ("v": 1). Every field is a simulated
// quantity, so the output is byte-identical across runs and hosts
// (the CI smoke tests diff it), and byte-identical to what a dsmd service
// caches and serves for the same job.
func writeJSON(w *os.File, cfg *machine.Config, policy ospage.Policy, run *exec.Result) error {
	return core.NewResultDoc(cfg, policy, run).Encode(w)
}

// runRemote submits the job to a dsmd service and renders the returned
// result document. The request mirrors the local defaults exactly
// (O3, runtime checks on), so the service's document is byte-identical to
// a local -json run of the same flags.
func runRemote(base, machName string, procs int, policy string, jsonOut bool, args []string) {
	srcs := map[string]string{}
	for _, a := range args {
		if strings.HasSuffix(a, ".img") {
			die(fmt.Errorf("-remote runs from sources, not compiled images (%s)", a))
		}
		data, err := os.ReadFile(a)
		die(err)
		srcs[a] = string(data)
	}
	client := service.NewClient(base)
	view, err := client.Run(&service.JobRequest{
		Sources: srcs,
		Machine: machName,
		Procs:   procs,
		Policy:  policy,
	})
	die(err)

	if jsonOut {
		os.Stdout.Write(view.Result)
		return
	}
	var doc core.ResultDoc
	die(json.Unmarshal(view.Result, &doc))
	how := "simulated by the service"
	if view.Cached {
		how = "served from the result cache (no simulation)"
	} else if view.Coalesced {
		how = "coalesced onto an identical in-flight job"
	}
	fmt.Printf("remote:  %s job %s — %s\n", base, view.ID, how)
	fmt.Printf("machine: %s, %d processors, policy %s\n", doc.Machine, doc.Procs, doc.Policy)
	fmt.Printf("cycles:  %d (%.6f s)\n", doc.Cycles, doc.Seconds)
	if doc.TimerCycles > 0 {
		fmt.Printf("timed section: %d cycles\n", doc.TimerCycles)
	}
	t := doc.Total
	fmt.Printf("loads %d  stores %d  L1miss %d  L2miss %d (local %d remote %d)  TLBmiss %d\n",
		t.Loads, t.Stores, t.L1Miss, t.L2Miss, t.L2MissLocal, t.L2MissRemote, t.TLBMiss)
	fmt.Printf("invalidations %d  interventions %d  mem-wait %d cyc  divides hw=%d soft=%d\n",
		t.InvSent, t.Interventions, t.WaitCyc, doc.HwDiv, doc.SoftDiv)
	fmt.Printf("pages: %d mapped (%d first-touch, %d round-robin, %d placed, %d migrated, %d spilled)\n",
		doc.Pages.Mapped, doc.Pages.FirstTouch, doc.Pages.RoundRobin,
		doc.Pages.Placed, doc.Pages.Migrated, doc.Pages.Spilled)
}

func die(err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "dsmrun: %v\n", err)
		os.Exit(1)
	}
}
