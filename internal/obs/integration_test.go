package obs_test

import (
	"os"
	"path/filepath"
	"testing"

	"dsmdist/internal/core"
	"dsmdist/internal/dist"
	"dsmdist/internal/exec"
	"dsmdist/internal/machine"
	"dsmdist/internal/obs"
	"dsmdist/internal/ospage"
	"dsmdist/internal/workloads"
)

// heatSrc is a (block,*) array written by a doacross over columns, so every
// processor touches every row block and the remote-miss pattern is fully
// determined by the §4.2 page placement.
const heatSrc = `      program heat
      integer n
      parameter (n = 1024)
      real*8 b(n, n)
c$distribute b(block, *)
      integer i, j
c$doacross local(i, j) shared(b)
      do j = 1, n
        do i = 1, n
          b(i, j) = dble(i) + dble(j)*0.5
        end do
      end do
      end
`

func runWithRecorder(t *testing.T, src string, cfg *machine.Config,
	policy ospage.Policy) (*exec.Result, *obs.Recorder) {
	t.Helper()
	rec := obs.NewRecorder(cfg)
	tc := core.New()
	tc.Rec = rec
	img, err := tc.Build(map[string]string{"main.f": src})
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	res, err := core.Run(img, cfg, core.RunOptions{Policy: policy, Rec: rec})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return res, rec
}

// TestHeatMapMatchesDistOwnership checks the attribution chain end to end:
// for a regular (block,*) distribution, every page of the array whose rows
// all belong to one node must be homed on that node (paper §4.2), remote
// misses on it must come only from other nodes, and the per-array heat map
// must agree with the per-page heat.
func TestHeatMapMatchesDistOwnership(t *testing.T) {
	const n, nprocs = 1024, 16
	cfg := machine.Scaled(nprocs)
	res, rec := runWithRecorder(t, heatSrc, cfg, ospage.FirstTouch)

	st := core.ArrayState(res, "heat", "b")
	if st == nil {
		t.Fatal("array heat.b not found")
	}
	base := st.Base
	size := int64(n) * int64(n) * 8
	pb := int64(cfg.PageBytes)

	// dist's view of who owns row i0 (dimension 1 blocked over all procs).
	dm := dist.NewDimMap(dist.Dim{Kind: dist.Block}, n, nprocs)

	checked, withRemote := 0, 0
	for vp := base / pb; vp*pb < base+size; vp++ {
		ph := rec.Page(vp)
		if ph == nil || ph.Local+ph.Remote == 0 {
			continue
		}
		lo, hi := vp*pb, (vp+1)*pb
		if lo < base {
			lo = base
		}
		if hi > base+size {
			hi = base + size
		}
		// The node dist assigns to every element in the page; -1 while
		// unset, -2 when the page spans nodes (block boundary).
		owner := -1
		for addr := lo; addr < hi; addr += 8 {
			i0 := int((addr - base) / 8 % int64(n))
			nd := cfg.NodeOf(dm.Owner(i0))
			if owner == -1 {
				owner = nd
			} else if owner != nd {
				owner = -2
				break
			}
		}
		if owner < 0 {
			continue // boundary page: placement is last-owner-wins, skip
		}
		checked++
		if ph.Home != owner {
			t.Errorf("page %d: home node %d, dist ownership says %d", vp, ph.Home, owner)
		}
		if ph.RemoteByNode[owner] != 0 {
			t.Errorf("page %d: %d remote misses attributed to its own home node",
				vp, ph.RemoteByNode[owner])
		}
		if ph.Remote > 0 {
			withRemote++
		}
		var byNode int64
		for _, c := range ph.RemoteByNode {
			byNode += c
		}
		if byNode != ph.Remote {
			t.Errorf("page %d: RemoteByNode sums to %d, Remote = %d", vp, byNode, ph.Remote)
		}
	}
	if checked < 100 {
		t.Fatalf("only %d single-owner pages checked; expected the bulk of %d array pages",
			checked, size/pb)
	}
	if withRemote == 0 {
		t.Fatal("no page saw a remote miss; the workload should force them")
	}

	// Array-level heat must agree with page-level heat summed over the
	// array's pages.
	ai := rec.ArrayHeat("heat.b")
	if ai == nil {
		t.Fatal("heat.b not registered with the recorder")
	}
	var pgLocal, pgRemote int64
	for vp := base / pb; vp*pb < base+size; vp++ {
		if ph := rec.Page(vp); ph != nil {
			pgLocal += ph.Local
			pgRemote += ph.Remote
		}
	}
	local, remote := ai.Misses()
	if local != pgLocal || remote != pgRemote {
		t.Errorf("array heat (%d local, %d remote) != page heat (%d, %d)",
			local, remote, pgLocal, pgRemote)
	}
	var served int64
	for _, nh := range ai.Nodes {
		served += nh.ServedRemote
	}
	if served != remote {
		t.Errorf("ServedRemote sums to %d, remote misses %d", served, remote)
	}
	// Every processor writes columns spanning all row blocks, so most
	// misses must be remote (7 of 8 row blocks are on other nodes).
	if remote <= local {
		t.Errorf("expected mostly remote misses, got %d local / %d remote", local, remote)
	}
}

// TestTLBFractionRoundRobinVsReshaped reproduces the paper's §8.2
// diagnosis on the profiler's own numbers: with a (block,*) transpose
// operand, round-robin placement leaves each processor striding across
// many pages (high TLB pressure), while reshaping makes each portion
// contiguous and local.
func TestTLBFractionRoundRobinVsReshaped(t *testing.T) {
	const n, iters, nprocs = 256, 1, 16
	cfg := machine.Scaled(nprocs)

	_, rrRec := runWithRecorder(t,
		workloads.Transpose(n, iters, workloads.Plain), cfg, ospage.RoundRobin)
	_, rsRec := runWithRecorder(t,
		workloads.Transpose(n, iters, workloads.Reshaped), machine.Scaled(nprocs), ospage.FirstTouch)

	rr, rs := rrRec.TLBFraction(), rsRec.TLBFraction()
	if rr <= rs {
		t.Errorf("TLB fraction: round-robin %.4f should exceed reshaped %.4f", rr, rs)
	}
	if rr < 0.05 {
		t.Errorf("round-robin TLB fraction %.4f implausibly low for a strided transpose", rr)
	}

	// The transpose region itself must carry the split.
	var rrRegion, rsRegion *obs.RegionStats
	for _, rg := range rrRec.Regions() {
		if rg.Name != obs.SerialRegion {
			rrRegion = rg
		}
	}
	for _, rg := range rsRec.Regions() {
		if rg.Name != obs.SerialRegion {
			rsRegion = rg
		}
	}
	if rrRegion == nil || rsRegion == nil {
		t.Fatal("transpose region missing from profile")
	}
	if rrRegion.TLBFrac() <= rsRegion.TLBFrac() {
		t.Errorf("region TLB fraction: round-robin %.4f should exceed reshaped %.4f",
			rrRegion.TLBFrac(), rsRegion.TLBFrac())
	}
}

// TestRecorderDoesNotPerturbSimulation is the zero-overhead contract from
// the other side: attaching a recorder must not change a single simulated
// cycle, only observe them.
func TestRecorderDoesNotPerturbSimulation(t *testing.T) {
	src := workloads.Transpose(128, 1, workloads.Regular)
	build := func() *exec.Result {
		cfg := machine.Scaled(4)
		tc := core.New()
		img, err := tc.Build(map[string]string{"main.f": src})
		if err != nil {
			t.Fatalf("build: %v", err)
		}
		res, err := core.Run(img, cfg, core.RunOptions{Policy: ospage.FirstTouch})
		if err != nil {
			t.Fatalf("run: %v", err)
		}
		return res
	}
	plain := build()

	cfg := machine.Scaled(4)
	observed, rec := runWithRecorder(t, src, cfg, ospage.FirstTouch)
	if plain.Cycles != observed.Cycles {
		t.Errorf("recorder changed the simulation: %d cycles plain, %d observed",
			plain.Cycles, observed.Cycles)
	}
	if plain.Total != observed.Total {
		t.Errorf("recorder changed the counters:\n plain    %+v\n observed %+v",
			plain.Total, observed.Total)
	}
	// And the recorder's own view must agree with the memory system's.
	if got := rec.Count(obs.KTLBMiss); got != observed.Total.TLBMiss {
		t.Errorf("recorder TLB misses %d != memsim %d", got, observed.Total.TLBMiss)
	}
	wantL2 := observed.Total.L2Miss
	if got := rec.Count(obs.KL2MissLocal) + rec.Count(obs.KL2MissRemote); got != wantL2 {
		t.Errorf("recorder L2 misses %d != memsim %d", got, wantL2)
	}
	if got := rec.Count(obs.KL2MissRemote); got != observed.Total.L2MissRemote {
		t.Errorf("recorder remote misses %d != memsim %d", got, observed.Total.L2MissRemote)
	}

	// Streaming must be equally invisible: with the trace spooling to disk
	// and the cycle-sampled series on, under both engines, every simulated
	// cycle and counter stays bit-identical to the unobserved run.
	for _, eng := range []exec.Engine{exec.EngineSerial, exec.EngineParallel} {
		cfg := machine.Scaled(4)
		srec := obs.NewRecorder(cfg)
		srec.EnableTrace(0)
		sink, err := obs.NewSpoolSink(filepath.Join(t.TempDir(), "trace.spool"))
		if err != nil {
			t.Fatal(err)
		}
		srec.SetTraceSink(sink)
		srec.EnableSeries(20000, nil)
		tc := core.New()
		tc.Rec = srec
		img, err := tc.Build(map[string]string{"main.f": src})
		if err != nil {
			t.Fatalf("%v build: %v", eng, err)
		}
		res, err := core.Run(img, cfg, core.RunOptions{
			Policy: ospage.FirstTouch, Rec: srec, Engine: eng, Workers: 4})
		if err != nil {
			t.Fatalf("%v run: %v", eng, err)
		}
		if res.Cycles != plain.Cycles {
			t.Errorf("%v engine with streaming changed the simulation: %d cycles, plain %d",
				eng, res.Cycles, plain.Cycles)
		}
		if res.Total != plain.Total {
			t.Errorf("%v engine with streaming changed the counters:\n plain    %+v\n streamed %+v",
				eng, plain.Total, res.Total)
		}
		if err := sink.Close(); err != nil {
			t.Fatalf("%v spool close: %v", eng, err)
		}
		spooled, err := os.Open(sink.Path())
		if err != nil {
			t.Fatal(err)
		}
		evs, err := obs.ReadSpool(spooled)
		spooled.Close()
		if err != nil {
			t.Fatalf("%v spool unreadable: %v", eng, err)
		}
		if int64(len(evs)) != srec.TraceCount() || srec.TraceDropped() != 0 {
			t.Errorf("%v spool holds %d events, recorder saw %d (%d dropped)",
				eng, len(evs), srec.TraceCount(), srec.TraceDropped())
		}
		if len(srec.SeriesRows()) == 0 {
			t.Errorf("%v run produced no series rows", eng)
		}
	}
}
