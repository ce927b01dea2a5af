// Cycle-sampled snapshot time-series: every SampleCycles simulated cycles
// the recorder appends one JSONL row of deltas since the previous row —
// event counts, per-processor counters, per-region cycle categories and
// per-array×node heat. Sampling is keyed to the simulated clock observed
// through the event stream, never host time, and every value in a row is
// derived from that stream, so the series is byte-identical across the
// serial and parallel engines and across repeated runs.
//
// Row schema (v=1), one JSON object per line:
//
//	{"v":1, "seq":0, "clock":250000, "now":251234,
//	 "events":{"l2-miss-local":123, ...},            // count deltas
//	 "procs":[{"p":0, "l1_miss":..., ...}, ...],     // ProcObs deltas
//	 "regions":[{"name":"...", "cycles":..., ...}],  // category deltas
//	 "heat":[{"array":"u.x","node":0,"local":..}],   // NodeHeat deltas
//	 "final":true}                                   // last row only
//
// clock is the sample boundary that triggered the row (a multiple of the
// interval; the final row uses the finish clock), now the actual watermark
// when it fired. Zero deltas are omitted. Engine health (epoch outcomes)
// is deliberately absent: it is engine-dependent and lives only in the
// live snapshot view.
package obs

import (
	"encoding/json"
	"io"
	"sync"
)

// DefaultSampleCycles is the snapshot interval unless EnableSeries is told
// otherwise.
const DefaultSampleCycles = 250_000

// SeriesVersion is the pinned row schema version.
const SeriesVersion = 1

type seriesProc struct {
	P int `json:"p"`
	ProcObs
}

type seriesRegion struct {
	Name       string `json:"name"`
	Cycles     int64  `json:"cycles,omitempty"`
	LocalCyc   int64  `json:"local_cyc,omitempty"`
	RemoteCyc  int64  `json:"remote_cyc,omitempty"`
	TLBCyc     int64  `json:"tlb_cyc,omitempty"`
	BWWaitCyc  int64  `json:"bwq_cyc,omitempty"`
	BarrierCyc int64  `json:"barrier_cyc,omitempty"`
	RedistCyc  int64  `json:"redist_cyc,omitempty"`
	LocalMiss  int64  `json:"local_miss,omitempty"`
	RemoteMiss int64  `json:"remote_miss,omitempty"`
	TLBMiss    int64  `json:"tlb_miss,omitempty"`
}

func (s seriesRegion) isZero() bool {
	z := s
	z.Name = ""
	return z == seriesRegion{}
}

type seriesHeat struct {
	Array  string `json:"array"`
	Node   int    `json:"node"`
	Local  int64  `json:"local,omitempty"`
	Remote int64  `json:"remote,omitempty"`
	Served int64  `json:"served,omitempty"`
	TLB    int64  `json:"tlb,omitempty"`
}

type seriesRow struct {
	V       int              `json:"v"`
	Seq     int64            `json:"seq"`
	Clock   int64            `json:"clock"`
	Now     int64            `json:"now"`
	Events  map[string]int64 `json:"events,omitempty"`
	Procs   []seriesProc     `json:"procs,omitempty"`
	Regions []seriesRegion   `json:"regions,omitempty"`
	Heat    []seriesHeat     `json:"heat,omitempty"`
	Final   bool             `json:"final,omitempty"`
}

// SnapshotEngine is the engine-health block of a live snapshot: the
// parallel engine's epochs that committed, fell back (by cause), and were
// sat out by the speculation governor. All zero under the serial engine;
// host-side diagnostics that appear nowhere but here.
type SnapshotEngine struct {
	EpochsCommitted int64            `json:"epochs_committed"`
	EpochsFallback  int64            `json:"epochs_fallback"`
	EpochsSkipped   int64            `json:"epochs_skipped"`
	FallbackCauses  map[string]int64 `json:"fallback_causes,omitempty"`
}

// Snapshot is the live /snapshot document: the recorder's current
// cumulative state, rebuilt at every sample boundary. Unlike series rows
// it may include engine-dependent fields.
type Snapshot struct {
	V            int            `json:"v"`
	Done         bool           `json:"done"`
	Clock        int64          `json:"clock"`
	Machine      string         `json:"machine"`
	Procs        int            `json:"procs"`
	Nodes        int            `json:"nodes"`
	SampleCycles int64          `json:"sample_cycles"`
	Samples      int64          `json:"samples"`
	Engine       SnapshotEngine `json:"engine"`
	ProcObs      []ProcObs      `json:"proc_obs"`
	Summary      *Summary       `json:"summary"`
}

// Series holds the sampling state. The mutex guards only the published
// artifacts (rows, cached snapshot) against concurrent readers — the live
// HTTP handlers; the baselines are touched solely by the simulation
// goroutine inside sample.
type Series struct {
	interval int64
	nextAt   int64
	out      io.Writer // optional JSONL destination, nil to keep in memory only
	outErr   error

	// Deltas baselines, sim goroutine only.
	lastCounts  [nKinds]int64
	lastProcs   []ProcObs
	lastRegions map[string]seriesRegion
	lastHeat    map[string][]NodeHeat

	mu   sync.Mutex
	seq  int64
	rows []json.RawMessage
	snap []byte
	done bool
}

// EnableSeries turns cycle-sampled snapshots on: one row every interval
// simulated cycles (<=0 means DefaultSampleCycles), streamed to out as
// JSONL when out is non-nil, and always retained in memory for the live
// endpoints.
func (r *Recorder) EnableSeries(interval int64, out io.Writer) {
	if r == nil {
		return
	}
	if interval <= 0 {
		interval = DefaultSampleCycles
	}
	r.series = &Series{
		interval:    interval,
		nextAt:      interval,
		out:         out,
		lastProcs:   make([]ProcObs, len(r.procObs)),
		lastRegions: map[string]seriesRegion{},
		lastHeat:    map[string][]NodeHeat{},
	}
	r.series.publishSnapshot(r)
}

// SeriesEnabled reports whether cycle sampling is on.
func (r *Recorder) SeriesEnabled() bool { return r != nil && r.series != nil }

// SampleCycles returns the sampling interval (0 when disabled).
func (r *Recorder) SampleCycles() int64 {
	if r == nil || r.series == nil {
		return 0
	}
	return r.series.interval
}

// SeriesRows returns the rows emitted so far (each one JSON object).
// Safe to call concurrently with the run.
func (r *Recorder) SeriesRows() []json.RawMessage {
	if r == nil || r.series == nil {
		return nil
	}
	s := r.series
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]json.RawMessage, len(s.rows))
	copy(out, s.rows)
	return out
}

// SeriesRowsFrom returns the rows emitted at index n and beyond plus
// whether the final row has been published — the incremental read behind
// the service's /jobs/{id}/series streamer. Safe to call concurrently
// with the run.
func (r *Recorder) SeriesRowsFrom(n int) ([]json.RawMessage, bool) {
	if r == nil || r.series == nil {
		return nil, true
	}
	s := r.series
	s.mu.Lock()
	defer s.mu.Unlock()
	if n < 0 {
		n = 0
	}
	if n > len(s.rows) {
		n = len(s.rows)
	}
	out := make([]json.RawMessage, len(s.rows)-n)
	copy(out, s.rows[n:])
	return out, s.done
}

// SeriesErr returns the first error writing rows to the series output.
func (r *Recorder) SeriesErr() error {
	if r == nil || r.series == nil {
		return nil
	}
	s := r.series
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.outErr
}

// WriteSeries writes the rows collected so far as JSONL. Safe to call
// concurrently with the run.
func (r *Recorder) WriteSeries(w io.Writer) error {
	for _, row := range r.SeriesRows() {
		if _, err := w.Write(append(row, '\n')); err != nil {
			return err
		}
	}
	return nil
}

// SnapshotJSON returns the latest cached live-snapshot document. Safe to
// call concurrently with the run.
func (r *Recorder) SnapshotJSON() []byte {
	if r == nil || r.series == nil {
		return nil
	}
	s := r.series
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.snap
}

// sample emits one series row of deltas since the previous row and
// refreshes the cached snapshot. Called on the simulation goroutine from
// advanceNow when the watermark crosses a boundary, and from Finish with
// final=true.
func (s *Series) sample(r *Recorder, final bool) {
	row := seriesRow{V: SeriesVersion, Clock: s.nextAt, Now: r.now, Final: final}
	if final {
		row.Clock = r.now
	}

	// Event-count deltas.
	for k := Kind(0); k < nKinds; k++ {
		if d := r.counts[k] - s.lastCounts[k]; d != 0 {
			if row.Events == nil {
				row.Events = map[string]int64{}
			}
			row.Events[k.String()] = d
		}
		s.lastCounts[k] = r.counts[k]
	}

	// Per-processor deltas.
	for p := range r.procObs {
		if d := r.procObs[p].sub(s.lastProcs[p]); !d.isZero() {
			row.Procs = append(row.Procs, seriesProc{P: p, ProcObs: d})
		}
		s.lastProcs[p] = r.procObs[p]
	}

	// Per-region category deltas, in region registration order. Raw
	// categories only: compute time is derivable post hoc, and mid-region
	// rows would make a derived compute field negative (Cycles lands at
	// region end while the miss categories accrue throughout).
	for _, rs := range r.regions {
		cum := seriesRegion{
			Name: rs.Name, Cycles: rs.Cycles,
			LocalCyc: rs.LocalMissCyc, RemoteCyc: rs.RemoteMissCyc,
			TLBCyc: rs.TLBCyc, BWWaitCyc: rs.BWWaitCyc,
			BarrierCyc: rs.BarrierCyc, RedistCyc: rs.RedistCyc,
			LocalMiss: rs.LocalMiss, RemoteMiss: rs.RemoteMiss, TLBMiss: rs.TLBMiss,
		}
		last := s.lastRegions[rs.Name]
		d := seriesRegion{
			Name: rs.Name, Cycles: cum.Cycles - last.Cycles,
			LocalCyc: cum.LocalCyc - last.LocalCyc, RemoteCyc: cum.RemoteCyc - last.RemoteCyc,
			TLBCyc: cum.TLBCyc - last.TLBCyc, BWWaitCyc: cum.BWWaitCyc - last.BWWaitCyc,
			BarrierCyc: cum.BarrierCyc - last.BarrierCyc, RedistCyc: cum.RedistCyc - last.RedistCyc,
			LocalMiss: cum.LocalMiss - last.LocalMiss, RemoteMiss: cum.RemoteMiss - last.RemoteMiss,
			TLBMiss: cum.TLBMiss - last.TLBMiss,
		}
		if !d.isZero() {
			row.Regions = append(row.Regions, d)
		}
		s.lastRegions[rs.Name] = cum
	}

	// Per-array×node heat deltas, in array registration order.
	for _, ai := range r.arrays {
		last := s.lastHeat[ai.Name]
		if len(last) < len(ai.Nodes) {
			last = append(last, make([]NodeHeat, len(ai.Nodes)-len(last))...)
		}
		for n, h := range ai.Nodes {
			d := seriesHeat{Array: ai.Name, Node: n,
				Local:  h.LocalMiss - last[n].LocalMiss,
				Remote: h.RemoteMiss - last[n].RemoteMiss,
				Served: h.ServedRemote - last[n].ServedRemote,
				TLB:    h.TLBMiss - last[n].TLBMiss,
			}
			if d.Local != 0 || d.Remote != 0 || d.Served != 0 || d.TLB != 0 {
				row.Heat = append(row.Heat, d)
			}
			last[n] = h
		}
		s.lastHeat[ai.Name] = last
	}

	// Advance past every boundary the watermark crossed: one row per
	// firing, however far the clock jumped.
	if r.now >= s.nextAt {
		s.nextAt = (r.now/s.interval + 1) * s.interval
	}

	s.mu.Lock()
	row.Seq = s.seq
	s.seq++
	buf, err := json.Marshal(row)
	if err == nil {
		s.rows = append(s.rows, buf)
		if s.out != nil && s.outErr == nil {
			if _, werr := s.out.Write(append(buf, '\n')); werr != nil {
				s.outErr = werr
			}
		}
	} else if s.outErr == nil {
		s.outErr = err
	}
	if final {
		s.done = true
	}
	s.mu.Unlock()

	s.publishSnapshot(r)
}

// publishSnapshot rebuilds and caches the live snapshot document. Sim
// goroutine only; readers take the cached bytes under the mutex.
func (s *Series) publishSnapshot(r *Recorder) {
	snap := Snapshot{
		V:            SeriesVersion,
		Clock:        r.now,
		Machine:      r.cfg.Name,
		Procs:        r.cfg.NProcs,
		Nodes:        r.nnodes,
		SampleCycles: s.interval,
		Engine:       r.engine,
		ProcObs:      r.ProcObsAll(),
		Summary:      r.Summarize(10),
	}
	s.mu.Lock()
	snap.Done = s.done
	snap.Samples = s.seq
	buf, err := json.Marshal(&snap)
	if err == nil {
		s.snap = buf
	}
	s.mu.Unlock()
}
