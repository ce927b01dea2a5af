// The redistribution sweep: quantifies the scheduled bulk-transfer
// collective against the legacy serial page-walk model of c$redistribute
// across array sizes, processor counts and distribution-spec pairs. The
// workload's timed section is a pure redistribute ping-pong, so Cycles is
// the data-motion cost and RedistCyc the recorder's attribution of it.
package experiments

import (
	"fmt"
	"time"

	"dsmdist/internal/core"
	"dsmdist/internal/machine"
	"dsmdist/internal/obs"
	"dsmdist/internal/ospage"
	"dsmdist/internal/workloads"
	"dsmdist/internal/xform"
)

// RedistPair is one old-spec → new-spec redistribution the sweep measures.
type RedistPair struct {
	Label    string
	From, To string // dimension spec lists, e.g. "(*, block)"
}

// RedistPairs are the spec pairs the redist experiment covers: the
// transpose-style remap (all-to-all traffic) and a cyclic(k) → block remap
// (the intersection sets are genuinely block-cyclic).
func RedistPairs() []RedistPair {
	return []RedistPair{
		{"(*,block)->(block,*)", "(*, block)", "(block, *)"},
		{"(cyclic(8),*)->(block,*)", "(cyclic(8), *)", "(block, *)"},
	}
}

// redistIters is how many ping-pongs (two redistributes each) the timed
// section performs.
const redistIters = 2

// Redist sweeps the redistribution engine: for each array size, spec pair
// and processor count, one run under the scheduled collective and one under
// the serial page-walk reference (exec.Options.RedistSerial — this sweep is
// the only non-test caller that sets it). Rows carry the timed-section
// cycles plus the recorder's RedistCyc attribution; Speedup is serial-model
// cycles over scheduled-model cycles at the same point.
func Redist(s Sizes) ([]Row, error) {
	if s.Remote != nil {
		return nil, fmt.Errorf("redist: not runnable via -remote (RedistCyc needs a local recorder attached to the run)")
	}
	sizes := []int{s.ConvSmallN, s.TransN}
	modes := []struct {
		label  string
		serial bool
	}{
		{"scheduled", false},
		{"serial", true},
	}

	type point struct {
		n    int
		pair RedistPair
		mode int
		p    int
	}
	var points []point
	for _, n := range sizes {
		for _, pr := range RedistPairs() {
			for m := range modes {
				for _, p := range s.Procs {
					points = append(points, point{n, pr, m, p})
				}
			}
		}
	}

	cache := core.NewBuildCache()
	rows := make([]Row, len(points))
	err := ForEach(s.Par, len(points), func(i int) error {
		pt := points[i]
		cfg := machine.Scaled(pt.p)
		rec := obs.NewRecorder(cfg)
		tc := core.NewAt(xform.O3())
		tc.RuntimeChecks = false
		tc.Cache = cache
		src := workloads.Redistribute(pt.n, redistIters, pt.pair.From, pt.pair.To)
		t0 := time.Now()
		img, err := tc.Build(map[string]string{"bench.f": src})
		if err != nil {
			return fmt.Errorf("redist n=%d %s: %w", pt.n, pt.pair.Label, err)
		}
		res, err := core.Run(img, cfg, core.RunOptions{
			Policy: ospage.FirstTouch, Rec: rec,
			RedistSerial: modes[pt.mode].serial, Engine: s.Engine, Tier: s.Tier})
		if err != nil {
			return fmt.Errorf("redist n=%d %s %s P=%d: %w",
				pt.n, pt.pair.Label, modes[pt.mode].label, pt.p, err)
		}
		label := fmt.Sprintf("n=%d %s %s", pt.n, pt.pair.Label, modes[pt.mode].label)
		rows[i] = rowFrom("redist", label, pt.p, cfg, res, 0)
		rows[i].RedistCyc = rec.RedistCycles()
		rows[i].WallMS = float64(time.Since(t0)) / float64(time.Millisecond)
		return nil
	})
	if err != nil {
		return nil, err
	}
	// Speedup of the scheduled engine over the serial model at the same
	// point (rows are laid out scheduled-block then serial-block per
	// pair).
	np := len(s.Procs)
	for i := range rows {
		pt := points[i]
		if pt.mode == 0 {
			serialRow := rows[i+np]
			if rows[i].Cycles > 0 {
				rows[i].Speedup = float64(serialRow.Cycles) / float64(rows[i].Cycles)
			}
		}
	}
	return rows, nil
}
