package core

import (
	"bytes"
	"encoding/json"
	"io"

	"dsmdist/internal/exec"
	"dsmdist/internal/machine"
	"dsmdist/internal/memsim"
	"dsmdist/internal/ospage"
)

// ResultDocVersion is the schema version stamped into every result
// document ("v"). Clients (dsmd, CI jq checks) use it to detect
// incompatible output; bump it when a field changes meaning or is removed
// (adding fields is compatible and does not require a bump).
const ResultDocVersion = 1

// ArrayTraffic is one array's L2-miss traffic in a ResultDoc.
type ArrayTraffic struct {
	Name   string `json:"name"`
	L2Miss int64  `json:"l2_miss"`
}

// ResultDoc is the machine-readable record of a completed run — the
// document dsmrun -json prints and the dsmd result cache stores. Every
// field is a simulated quantity, so for a given JobSpec the document is
// byte-identical across execution tiers and hosts: that
// determinism is what makes it a valid content-addressed cache value.
type ResultDoc struct {
	V           int                `json:"v"`
	Machine     string             `json:"machine"`
	Procs       int                `json:"procs"`
	Policy      string             `json:"policy"`
	Cycles      int64              `json:"cycles"`
	Seconds     float64            `json:"seconds"`
	TimerCycles int64              `json:"timer_cycles"`
	HwDiv       int64              `json:"hw_div"`
	SoftDiv     int64              `json:"soft_div"`
	Instrs      int64              `json:"instrs"`
	Total       memsim.ProcStats   `json:"total"`
	PerProc     []memsim.ProcStats `json:"per_proc"`
	Pages       ospage.Stats       `json:"pages"`
	Arrays      []ArrayTraffic     `json:"arrays"`
}

// NewResultDoc captures a finished run as a result document.
func NewResultDoc(cfg *machine.Config, policy ospage.Policy, run *exec.Result) *ResultDoc {
	var arrays []ArrayTraffic
	for _, st := range run.RT.Arrays {
		arrays = append(arrays, ArrayTraffic{
			Name: st.Plan.Unit + "." + st.Plan.Name, L2Miss: run.RT.Traffic(st)})
	}
	return &ResultDoc{
		V:       ResultDocVersion,
		Machine: cfg.Name, Procs: cfg.NProcs, Policy: policy.String(),
		Cycles: run.Cycles, Seconds: run.Seconds(), TimerCycles: run.TimerCycles,
		HwDiv: run.HwDiv, SoftDiv: run.SoftDiv, Instrs: run.Instrs,
		Total: run.Total, PerProc: run.Stats, Pages: run.Pages, Arrays: arrays,
	}
}

// Encode writes the document in its canonical byte encoding (two-space
// indented JSON, trailing newline). Local dsmrun -json output and the
// dsmd store both use this encoding, so a remote cache hit is
// byte-identical to the local run it replaces.
func (d *ResultDoc) Encode(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(d)
}

// Marshal returns the canonical byte encoding (see Encode).
func (d *ResultDoc) Marshal() ([]byte, error) {
	var buf bytes.Buffer
	if err := d.Encode(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// Measured returns the region-of-interest cycles: the dsm_timer section
// when the program used the timer, total cycles otherwise — the same rule
// the experiment harness and the advisor apply.
func (d *ResultDoc) Measured() int64 {
	if d.TimerCycles > 0 {
		return d.TimerCycles
	}
	return d.Cycles
}
