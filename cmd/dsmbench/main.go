// dsmbench regenerates the paper's evaluation (§8): Table 2 and Figures
// 4–7, on the scaled simulated Origin-2000. See EXPERIMENTS.md for the
// recorded outputs and the comparison against the paper.
//
// Usage:
//
//	dsmbench                      run everything at full (scaled) size
//	dsmbench -list                list the experiments with descriptions
//	dsmbench -exp fig5            run one experiment
//	                              (table2 | fig4 | fig5 | fig6 | fig7)
//	dsmbench -quick               small sizes for a fast smoke run
//	dsmbench -procs 1,4,16,64     override the processor sweep
//	dsmbench -par 4               host worker budget: sets the shared
//	                              hostpool budget that sweep workers draw
//	                              from, one simulated point per worker
//	                              (0 = GOMAXPROCS; simulated results are
//	                              bit-identical at any setting)
//	dsmbench -progress            live progress line on stderr per sweep
//	                              (points done/total, compile-cache hits,
//	                              ETA), with the lowest-index failure
//	                              reported as soon as it is definitive
//	dsmbench -remote host:port    ship each sweep to a dsmd service as ONE
//	                              batch submission instead of simulating
//	                              locally; repeat sweeps are served from
//	                              the service's content-addressed result
//	                              cache (0 new simulations) and rows are
//	                              identical to local ones except wall_ms.
//	                              fig5/fig6/fig7 only: table2/fig4
//	                              customize node memory and redist needs a
//	                              local recorder, so they stay local-only
//	dsmbench -json rows.json      also write every row (including the full
//	                              per-policy memory-system counters and the
//	                              host wall_ms per point) as JSON
//	dsmbench -cpuprofile cpu.pb   host pprof profiles of the harness itself
//	dsmbench -memprofile mem.pb   (the simulated machine's profiler is
//	                              cmd/dsmprof)
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"dsmdist/internal/experiments"
	"dsmdist/internal/hostpool"
	"dsmdist/internal/service"
)

func main() {
	expName := flag.String("exp", "all", "experiment: all | table2 | fig4 | fig5 | fig6 | fig7")
	list := flag.Bool("list", false, "list available experiments and exit")
	quick := flag.Bool("quick", false, "use small sizes")
	procsFlag := flag.String("procs", "", "comma-separated processor counts")
	par := flag.Int("par", 0, "host worker budget for sweep points (0 = GOMAXPROCS, 1 = serial)")
	jsonOut := flag.String("json", "", "write all rows as JSON to file")
	progress := flag.Bool("progress", false, "live progress line on stderr per sweep")
	remote := flag.String("remote", "", "dsmd service URL: run sweep points there as one batch per sweep")
	cpuProfile := flag.String("cpuprofile", "", "write a host CPU profile to file")
	memProfile := flag.String("memprofile", "", "write a host heap profile to file")
	flag.Parse()

	if *list {
		for _, e := range experiments.Catalog() {
			fmt.Printf("%-8s %s\n", e.Name, e.Desc)
		}
		return
	}

	sizes := experiments.Full()
	if *quick {
		sizes = experiments.Quick()
	}
	sizes.Par = *par
	if *par > 0 {
		hostpool.SetBudget(*par)
	}
	if *progress {
		sizes.Progress = os.Stderr
	}
	var cli *service.Client
	if *remote != "" {
		cli = service.NewClient(*remote)
		cli.Tenant = "bench"
		die(cli.Health())
		sizes.Remote = cli
	}
	if *procsFlag != "" {
		var ps []int
		for _, tok := range strings.Split(*procsFlag, ",") {
			v, err := strconv.Atoi(strings.TrimSpace(tok))
			die(err)
			ps = append(ps, v)
		}
		sizes.Procs = ps
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		die(err)
		die(pprof.StartCPUProfile(f))
		defer func() {
			pprof.StopCPUProfile()
			die(f.Close())
		}()
	}

	catalog := experiments.Catalog()
	if *expName != "all" {
		e, err := experiments.Find(*expName)
		die(err)
		catalog = []experiments.Experiment{e}
	}
	var allRows []experiments.Row
	for _, e := range catalog {
		fmt.Printf("==== %s ====\n", e.Name)
		t0 := time.Now()
		rows, err := e.Run(sizes)
		die(err)
		experiments.Print(os.Stdout, rows)
		fmt.Printf("host: %s wall, budget %d workers\n\n",
			time.Since(t0).Round(time.Millisecond), hostpool.Budget())
		allRows = append(allRows, rows...)
	}
	if cli != nil {
		fmt.Printf("remote: %d of %d points served from the dsmd cache\n",
			cli.CacheHits(), cli.Requests())
	}
	if *jsonOut != "" {
		f, err := os.Create(*jsonOut)
		die(err)
		die(experiments.WriteJSON(f, allRows))
		die(f.Close())
		fmt.Printf("wrote %d rows to %s\n", len(allRows), *jsonOut)
	}
	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		die(err)
		runtime.GC()
		die(pprof.WriteHeapProfile(f))
		die(f.Close())
	}
}

func die(err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "dsmbench: %v\n", err)
		os.Exit(1)
	}
}
