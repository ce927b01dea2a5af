// Tests of the client-facing contracts that live above the HTTP surface:
// canonical result bytes and the advisor's remote verification (per-point
// and batched). External test package: the advisor transitively imports
// experiments, which imports service for its own -remote mode.
package service_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"

	"dsmdist/internal/advisor"
	"dsmdist/internal/core"
	"dsmdist/internal/machine"
	"dsmdist/internal/ospage"
	"dsmdist/internal/service"
	"dsmdist/internal/workloads"
	"dsmdist/internal/xform"
)

func remoteTransposeReq() *service.JobRequest {
	return &service.JobRequest{
		Sources: map[string]string{"t.f": workloads.Transpose(16, 1, workloads.Reshaped)},
		Machine: "tiny",
		Procs:   2,
	}
}

// remoteVerify mirrors the dsmadvise -remote per-point hook: one
// verification point becomes one service job, measured cycles come out of
// the result document.
func remoteVerify(cli *service.Client) func(map[string]string, int, ospage.Policy) (int64, error) {
	off := false
	return func(srcs map[string]string, p int, policy ospage.Policy) (int64, error) {
		view, err := cli.Run(&service.JobRequest{
			Sources:       srcs,
			Machine:       "tiny",
			Procs:         p,
			Policy:        policy.String(),
			RuntimeChecks: &off,
		})
		if err != nil {
			return 0, err
		}
		var doc core.ResultDoc
		if err := json.Unmarshal(view.Result, &doc); err != nil {
			return 0, err
		}
		return doc.Measured(), nil
	}
}

// remoteVerifyBatch mirrors the dsmadvise -remote batch hook: the whole
// fan-out ships as one atomically admitted batch.
func remoteVerifyBatch(cli *service.Client) func([]advisor.VerifyPoint) ([]int64, error) {
	off := false
	return func(points []advisor.VerifyPoint) ([]int64, error) {
		batch := &service.BatchRequest{
			Defaults: service.JobRequest{Machine: "tiny", RuntimeChecks: &off},
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
			if views[i].State != service.StateDone {
				return nil, fmt.Errorf("job %s ended %s: %s", views[i].ID, views[i].State, views[i].Error)
			}
			var doc core.ResultDoc
			if err := json.Unmarshal(views[i].Result, &doc); err != nil {
				return nil, err
			}
			out[i] = doc.Measured()
		}
		return out, nil
	}
}

// localResultDoc is the document a local run of remoteTransposeReq's spec
// marshals: what dsmrun -json prints for it.
func localResultDoc(t *testing.T) []byte {
	t.Helper()
	req := remoteTransposeReq()
	img, err := core.NewAt(xform.O3()).Build(req.Sources)
	if err != nil {
		t.Fatal(err)
	}
	cfg := machine.Tiny(req.Procs)
	run, err := core.Run(img, cfg, core.RunOptions{Policy: ospage.FirstTouch})
	if err != nil {
		t.Fatal(err)
	}
	doc, err := core.NewResultDoc(cfg, ospage.FirstTouch, run).Marshal()
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

// TestClientCanonicalResultBytes: the bytes a Client hands back on every
// read path — Run, RunBatch and WaitJob, cold and warm — are exactly the
// document the server stored, which is exactly the document a local run
// marshals, so dsmrun -remote -json output is byte-identical to a local
// -json run.
func TestClientCanonicalResultBytes(t *testing.T) {
	if testing.Short() {
		t.Skip("simulator run")
	}
	store, err := service.OpenStore(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	srv := service.New(service.Options{Store: store})
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	cli := service.NewClient(hs.URL)
	view, err := cli.Run(remoteTransposeReq())
	if err != nil {
		t.Fatal(err)
	}
	stored, ok := store.Get(service.KindResult, view.Key)
	if !ok {
		t.Fatalf("no stored result under the returned key %s", view.Key)
	}
	if local := localResultDoc(t); !bytes.Equal(stored, local) {
		t.Fatalf("stored result differs from the local result document:\n--- local\n%s\n--- stored\n%s",
			local, stored)
	}

	warm, err := cli.Run(remoteTransposeReq())
	if err != nil {
		t.Fatal(err)
	}
	batch, err := cli.RunBatch(&service.BatchRequest{
		Jobs: []service.JobRequest{*remoteTransposeReq(), *remoteTransposeReq()},
	})
	if err != nil {
		t.Fatal(err)
	}
	waited, err := cli.WaitJob(view.ID)
	if err != nil {
		t.Fatal(err)
	}
	for name, got := range map[string]*service.JobView{
		"Run (cold)": view, "Run (warm)": warm,
		"RunBatch[0]": &batch[0], "RunBatch[1]": &batch[1], "WaitJob": waited,
	} {
		if !bytes.Equal(stored, got.Result) {
			t.Errorf("%s result differs from stored canonical bytes:\n--- stored\n%s\n--- client\n%s",
				name, stored, got.Result)
		}
	}
	if !warm.Cached || !batch[0].Cached {
		t.Fatalf("warm reads not served from the store: Run cached=%v, RunBatch cached=%v",
			warm.Cached, batch[0].Cached)
	}
}

// TestAdvisorRemoteVerify runs the advisor's verification fan-out through a
// live dsmd server three ways — per-point on a cold cache, batched on the
// warm cache, purely local — and all three reports must be identical,
// because simulation is deterministic. The warm batched run must be served
// entirely from the content-addressed result cache.
func TestAdvisorRemoteVerify(t *testing.T) {
	if testing.Short() {
		t.Skip("simulator run")
	}
	store, err := service.OpenStore(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	srv := service.New(service.Options{Store: store})
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	src := map[string]string{"main.f": workloads.Transpose(32, 1, workloads.Plain)}
	opts := advisor.Options{Procs: []int{1, 2}, Machine: machine.Tiny, TopK: 3}

	render := func(rep *advisor.Report) string {
		var b strings.Builder
		if err := rep.WriteText(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}

	cli1 := service.NewClient(hs.URL)
	opts.Verify = remoteVerify(cli1)
	rep1, err := advisor.Advise(src, opts)
	if err != nil {
		t.Fatal(err)
	}

	// Warm repeat through the batch hook: one POST, every element cached.
	cli2 := service.NewClient(hs.URL)
	opts.Verify = nil
	opts.VerifyBatch = remoteVerifyBatch(cli2)
	rep2, err := advisor.Advise(src, opts)
	if err != nil {
		t.Fatal(err)
	}
	if cli2.Requests() == 0 || cli2.CacheHits() != cli2.Requests() {
		t.Fatalf("repeat advise: %d of %d verification points cached, want all",
			cli2.CacheHits(), cli2.Requests())
	}
	if render(rep1) != render(rep2) {
		t.Fatal("batched remote report differs from the per-point one")
	}

	// The remote report matches a purely local verification bit for bit.
	opts.VerifyBatch = nil
	local, err := advisor.Advise(src, opts)
	if err != nil {
		t.Fatal(err)
	}
	if render(local) != render(rep1) {
		t.Fatalf("remote verification changed the report:\n--- local\n%s\n--- remote\n%s",
			render(local), render(rep1))
	}
	if err := srv.Drain(); err != nil {
		t.Fatal(err)
	}
}
