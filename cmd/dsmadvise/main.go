// dsmadvise is the automatic data-distribution advisor: point it at a
// program in the Fortran subset and it proposes the c$distribute /
// c$distribute_reshape / affinity directives of the paper (§3). It
// extracts the affine access footprint of every doacross nest, scores a
// menu of legal candidate distributions with an analytic machine-model
// cost (optionally reweighed by a measured dsmprof heat map), verifies
// the best candidates on the simulator, and prints a ranked report with
// the winning directive text. Existing distribution directives in the
// input are ignored — the advisor starts from a clean slate.
//
// Usage:
//
//	dsmadvise [flags] main.f [more.f ...]
//
// Flags:
//
//	-p LIST       processor counts to evaluate, comma separated
//	              (default 1,4,16)
//	-machine M    origin2000 | scaled | tiny (default scaled)
//	-top K        candidates to verify on the simulator
//	              (default 6, -1 = all)
//	-par N        host workers for verification runs (0 = all cores);
//	              wall time only, the report is deterministic
//	-heat FILE    dsmprof -heat-json profile to seed the cost model
//	-json FILE    also write the ranked report as JSON
//	-rewrite FILE write the winning rewritten program to FILE
//	-remote URL   route the verification runs through a dsmd simulation
//	              service instead of simulating locally: the whole
//	              top-K × P fan-out ships as ONE atomically admitted batch
//	              submission and hits the service's shared
//	              content-addressed result cache (repeat advice runs and
//	              other users' runs of the same candidates cost no
//	              simulation). The report is identical to local
//	              verification — simulation is deterministic — and a
//	              cache-hit summary goes to stderr
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"dsmdist/internal/advisor"
	"dsmdist/internal/core"
	"dsmdist/internal/machine"
	"dsmdist/internal/obs"
	"dsmdist/internal/service"
)

func main() {
	procList := flag.String("p", "1,4,16", "processor counts, comma separated")
	machName := flag.String("machine", "scaled", "machine: origin2000 | scaled | tiny")
	topK := flag.Int("top", 6, "candidates to verify on the simulator (-1 = all)")
	par := flag.Int("par", 0, "host workers for verification (0 = all cores)")
	heatFile := flag.String("heat", "", "dsmprof -heat-json profile to seed the cost model")
	jsonOut := flag.String("json", "", "write the ranked report as JSON to file")
	rewriteOut := flag.String("rewrite", "", "write the winning rewritten program to file")
	remote := flag.String("remote", "", "verify candidates through a dsmd service at this URL")
	flag.Parse()

	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "dsmadvise: no input sources")
		os.Exit(2)
	}

	procs, err := parseProcs(*procList)
	die(err)

	mach, err := machine.Preset(*machName)
	die(err)

	var heat *obs.HeatMap
	if *heatFile != "" {
		f, err := os.Open(*heatFile)
		die(err)
		heat, err = obs.ReadHeatMap(f)
		f.Close()
		die(err)
	}

	srcs := map[string]string{}
	for _, a := range flag.Args() {
		data, err := os.ReadFile(a)
		die(err)
		srcs[a] = string(data)
	}

	aopts := advisor.Options{
		Procs:   procs,
		Machine: mach,
		TopK:    *topK,
		Par:     *par,
		Heat:    heat,
	}
	var cli *service.Client
	if *remote != "" {
		cli = service.NewClient(*remote)
		cli.Tenant = "advisor"
		die(cli.Health())
		aopts.VerifyBatch = remoteVerifyBatch(cli, *machName)
	}

	rep, err := advisor.Advise(srcs, aopts)
	die(err)

	die(rep.WriteText(os.Stdout))
	if *jsonOut != "" {
		die(writeTo(*jsonOut, rep.WriteJSON))
	}
	if *rewriteOut != "" {
		die(os.WriteFile(*rewriteOut, []byte(rep.WinnerSource), 0o644))
	}
	if cli != nil {
		fmt.Fprintf(os.Stderr, "dsmadvise: remote: %d of %d verification points served from the dsmd cache\n",
			cli.CacheHits(), cli.Requests())
	}
}

// remoteVerifyBatch builds the advisor VerifyBatch hook: the whole
// verification fan-out becomes one dsmd batch submission (atomic
// admission, per-element cache hits, results in request order). Runtime
// checks are off, matching the advisor's local verification path, so the
// job keys line up with sweeps.
func remoteVerifyBatch(cli *service.Client, machName string) func([]advisor.VerifyPoint) ([]int64, error) {
	off := false
	return func(points []advisor.VerifyPoint) ([]int64, error) {
		batch := &service.BatchRequest{
			Defaults: service.JobRequest{
				Machine:       machName,
				RuntimeChecks: &off,
			},
		}
		for _, pt := range points {
			batch.Jobs = append(batch.Jobs, service.JobRequest{
				Sources: pt.Sources,
				Procs:   pt.Procs,
				Policy:  pt.Policy.String(),
			})
		}
		views, err := cli.RunBatch(batch)
		if err != nil {
			return nil, err
		}
		out := make([]int64, len(views))
		for i := range views {
			v := &views[i]
			if v.State != service.StateDone {
				return nil, fmt.Errorf("job %s ended %s: %s", v.ID, v.State, v.Error)
			}
			var doc core.ResultDoc
			if err := json.Unmarshal(v.Result, &doc); err != nil {
				return nil, fmt.Errorf("bad result document: %w", err)
			}
			out[i] = doc.Measured()
		}
		return out, nil
	}
}

func parseProcs(s string) ([]int, error) {
	var procs []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		p, err := strconv.Atoi(part)
		if err != nil || p < 1 {
			return nil, fmt.Errorf("bad processor count %q", part)
		}
		procs = append(procs, p)
	}
	if len(procs) == 0 {
		return nil, fmt.Errorf("empty processor list")
	}
	return procs, nil
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
		fmt.Fprintf(os.Stderr, "dsmadvise: %v\n", err)
		os.Exit(1)
	}
}
