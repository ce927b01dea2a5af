// dsmprof is the profiler for the simulated Origin-2000 — the analog of
// perfex/SpeedShop the paper's evaluation leans on (§8). It compiles (or
// loads) a program, runs it with the observability layer attached, and
// reports where the cycles went: a per-region breakdown (compute /
// local-miss / remote-miss / TLB / bandwidth-queue / barrier), per-array ×
// per-node heat maps, and the hottest pages by remote misses.
//
// Usage:
//
//	dsmprof [flags] prog.img
//	dsmprof [flags] main.f [more.f ...]
//
// Flags:
//
//	-p N          processors (default 1)
//	-policy P     first-touch (ft) | round-robin (rr); applies only to
//	              pages not claimed by a c$distribute directive
//	-machine M    origin2000 | scaled | tiny (default scaled)
//	-top N        hot pages to list (default 10)
//	-json FILE    also write the profile summary as JSON
//	-csv FILE     also write the per-region breakdown as CSV
//	-trace FILE   also write a Chrome trace_event timeline
//	-heat-json F  also write the per-array × per-node heat map in the
//	              schema internal/advisor consumes (dsmadvise -heat F)
//	-max-quanta N raise the runaway-loop guard, as in dsmrun
//
// Live observability, as in dsmrun (host-side only; the profile numbers
// are unchanged):
//
//	-serve ADDR   serve /snapshot, /series, /trace and the HTML dashboard
//	              during the run, and keep serving until interrupted
//	-series FILE  append cycle-sampled snapshot rows to FILE as JSONL
//	-sample N     snapshot every N simulated cycles (default 250000)
//	-finalize SPOOL  convert an (interrupted) trace spool into loadable
//	              Chrome trace JSON at the -trace path and exit
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"

	"dsmdist/internal/codegen"
	"dsmdist/internal/core"
	"dsmdist/internal/exec"
	"dsmdist/internal/machine"
	"dsmdist/internal/obs"
	"dsmdist/internal/ospage"
)

func main() {
	procs := flag.Int("p", 1, "number of processors")
	policyName := flag.String("policy", "first-touch", "default page policy: first-touch (ft) | round-robin (rr)")
	machName := flag.String("machine", "scaled", "machine: origin2000 | scaled | tiny")
	topN := flag.Int("top", 10, "hot pages to list")
	jsonOut := flag.String("json", "", "write JSON profile summary to file")
	csvOut := flag.String("csv", "", "write per-region CSV to file")
	traceOut := flag.String("trace", "", "write Chrome trace-event JSON to file")
	heatOut := flag.String("heat-json", "", "write the per-array heat map (advisor schema) to file")
	maxQuanta := flag.Int64("max-quanta", 0, "runaway-loop guard: max scheduling rounds (0 = default)")
	serveAddr := flag.String("serve", "", "serve live run views on this address (e.g. :8080)")
	seriesOut := flag.String("series", "", "append cycle-sampled snapshot rows to this JSONL file")
	sample := flag.Int64("sample", 0, "snapshot sampling interval in simulated cycles (0 = default)")
	finalize := flag.String("finalize", "", "convert this trace spool to Chrome trace JSON (with -trace OUT) and exit")
	flag.Parse()

	if *finalize != "" {
		out := *traceOut
		if out == "" {
			out = strings.TrimSuffix(*finalize, ".spool") + ".json"
		}
		die(obs.FinalizeSpoolFile(*finalize, out))
		fmt.Printf("dsmprof: finalized %s to %s\n", *finalize, out)
		return
	}

	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "dsmprof: no input")
		os.Exit(2)
	}

	mach, err := machine.Preset(*machName)
	die(err)
	cfg := mach(*procs)
	policy, err := ospage.ParsePolicy(*policyName)
	die(err)

	rec := obs.NewRecorder(cfg)
	if *traceOut != "" || *serveAddr != "" {
		rec.EnableTrace(0)
	}

	// Streaming observability, mirroring dsmrun: trace spool on disk,
	// cycle-sampled series, live endpoints.
	var ts *obs.TraceStream
	var spool *obs.SpoolSink
	if *traceOut != "" {
		var err error
		ts, err = obs.StreamTraceToFile(rec, *traceOut)
		die(err)
		spool = ts.Spool
	} else if *serveAddr != "" {
		tmp := filepath.Join(os.TempDir(), fmt.Sprintf("dsmprof-%d.spool", os.Getpid()))
		sink, err := obs.NewSpoolSink(tmp)
		die(err)
		rec.SetTraceSink(sink)
		spool = sink
	}
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
	if *serveAddr != "" {
		ln, err := obs.NewLiveServer(rec, spool).Serve(*serveAddr)
		die(err)
		fmt.Fprintf(os.Stderr, "dsmprof: serving live run on http://%s/\n", ln.Addr())
	}
	if *traceOut != "" {
		sigc := make(chan os.Signal, 1)
		signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
		go func() {
			<-sigc
			if err := ts.Finalize(); err == nil {
				fmt.Fprintf(os.Stderr, "dsmprof: interrupted; partial trace finalized to %s\n", *traceOut)
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
		rec.SetMeta("sources", flag.Arg(0))
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

	fmt.Printf("dsmprof: %d cycles (%.6f s at %d MHz), policy %s\n\n",
		run.Cycles, run.Seconds(), cfg.ClockMHz, policy)
	sum := rec.Summarize(*topN)
	die(sum.WriteText(os.Stdout))

	if *jsonOut != "" {
		die(writeTo(*jsonOut, sum.WriteJSON))
	}
	if *csvOut != "" {
		die(writeTo(*csvOut, sum.WriteCSV))
	}
	if *traceOut != "" {
		die(ts.Finalize())
	}
	if *heatOut != "" {
		die(writeTo(*heatOut, rec.HeatMap().WriteJSON))
	}
	if *serveAddr != "" {
		fmt.Fprintln(os.Stderr, "dsmprof: run finished; still serving — interrupt to exit")
		sigc := make(chan os.Signal, 1)
		signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
		<-sigc
	}
}

func writeTo(path string, fn func(w io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := fn(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func die(err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "dsmprof: %v\n", err)
		os.Exit(1)
	}
}
