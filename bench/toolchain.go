package main

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"dsmdist/internal/advisor"
	"dsmdist/internal/codegen"
	"dsmdist/internal/core"
	"dsmdist/internal/dist"
	"dsmdist/internal/exec"
	"dsmdist/internal/fortran"
	"dsmdist/internal/link"
	"dsmdist/internal/machine"
	"dsmdist/internal/obj"
	"dsmdist/internal/sema"
	"dsmdist/internal/workloads"
	"dsmdist/internal/xform"
)

// toolchain_cold: uncached core.Toolchain.Build of every corpus program at
// O0..O3 with runtime checks on, then the gob encode+decode of the image
// that the dsmd compile store performs. No simulation runs in the timed
// part.

// program is one corpus entry.
type program struct {
	name    string
	sources map[string]string
	// small programs are also run, untimed, at every level: their arrays
	// at O1..O3 must equal those at O0.
	small bool
}

// build is one op of the pass.
type build struct {
	prog  *program
	level int
}

var optLevels = []xform.Options{xform.O0(), xform.O1(), xform.O2(), xform.O3()}

// corpus is the 16 generated paper programs at the sweep sizes plus the
// hand-written programs under bench/corpus: the four single-file examples
// and the three-file cloning program.
func corpus(root string, sc simScale) ([]*program, error) {
	var out []*program
	variants := []workloads.Variant{workloads.Serial, workloads.Plain, workloads.Regular, workloads.Reshaped}
	for _, v := range variants {
		out = append(out,
			&program{name: "lu-" + v.String(), sources: oneSource(workloads.LU(sc.luN, 1, v))},
			&program{name: "transpose-" + v.String(), sources: oneSource(workloads.Transpose(sc.transN, sc.transIters, v))},
			&program{name: "conv1-" + v.String(), sources: oneSource(workloads.Convolution(sc.convN, 1, 1, v))},
			&program{name: "conv2-" + v.String(), sources: oneSource(workloads.Convolution(sc.convN, 1, 2, v))})
	}
	dir := filepath.Join(root, "bench", "corpus")
	files, err := filepath.Glob(filepath.Join(dir, "*.f"))
	if err != nil || len(files) == 0 {
		return nil, fmt.Errorf("corpus: no programs under %s", dir)
	}
	sort.Strings(files)
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		out = append(out, &program{name: filepath.Base(f), sources: map[string]string{filepath.Base(f): string(src)}, small: true})
	}
	clone := &program{name: "clone3", sources: map[string]string{}, small: true}
	parts, _ := filepath.Glob(filepath.Join(dir, "clone3", "*.f"))
	for _, f := range parts {
		src, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		clone.sources[filepath.Base(f)] = string(src)
	}
	if len(clone.sources) != 3 {
		return nil, fmt.Errorf("corpus: %s/clone3 should hold three files, has %d", dir, len(clone.sources))
	}
	return append(out, clone), nil
}

type toolchainWorkload struct {
	e        *env
	progs    []*program
	builds   []build
	verified bool
}

func (w *toolchainWorkload) setupReps() int { return 5 }

func (w *toolchainWorkload) setup() error {
	sc := fullSim
	if w.e.cfg.smoke {
		sc = smokeSim
	}
	var err error
	if w.progs, err = corpus(w.e.cfg.root, sc); err != nil {
		return err
	}
	w.builds = nil
	for _, p := range w.progs {
		for l := range optLevels {
			w.builds = append(w.builds, build{p, l})
		}
	}
	// The seed fixes the order the corpus is built in.
	rng := rand.New(rand.NewSource(w.e.cfg.seed))
	rng.Shuffle(len(w.builds), func(i, j int) { w.builds[i], w.builds[j] = w.builds[j], w.builds[i] })
	// Warm-up, and (once per run) the check that the transforms keep
	// program results: every small program is run at O0..O3 and must
	// leave the same arrays.
	if _, err := w.pass(nil); err != nil {
		return err
	}
	if w.verified {
		return nil
	}
	w.verified = true
	for _, p := range w.progs {
		if p.small {
			err := sameArraysAtEveryLevel(p)
			w.e.chk.op(err == nil, "program %s: %v", p.name, err)
		}
	}
	return nil
}

func (w *toolchainWorkload) teardown() {}

func (w *toolchainWorkload) describe() string { return "no simulation in the timed part" }

func codeInstrs(res *codegen.Result) int {
	n := 0
	for _, fn := range res.Prog.Fns {
		n += len(fn.Code)
	}
	return n
}

// gobRoundTrip encodes and decodes an image the way the dsmd compile store
// does, returning the decoded result and the encoded size.
func gobRoundTrip(res *codegen.Result) (*codegen.Result, int, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(res); err != nil {
		return nil, 0, err
	}
	size := buf.Len()
	back := &codegen.Result{}
	if err := gob.NewDecoder(&buf).Decode(back); err != nil {
		return nil, 0, err
	}
	return back, size, nil
}

func (w *toolchainWorkload) pass(tr *tracer) (passStat, error) {
	var ps passStat
	t0 := time.Now()
	for _, b := range w.builds {
		op := fmt.Sprintf("%s O%d", b.prog.name, b.level)
		o0 := time.Now()
		root := tr.begin("op", -1, op)
		tc := core.NewAt(optLevels[b.level]) // runtime checks on, no cache
		bs := tr.begin("core.build", root, op)
		img, err := tc.Build(b.prog.sources)
		tr.end(bs)
		if err != nil {
			return ps, fmt.Errorf("build %s: %w", op, err)
		}
		gs := tr.begin("codegen.image_gob", root, op)
		back, size, err := gobRoundTrip(img.Res)
		tr.end(gs)
		tr.end(root)
		ps.opMS = append(ps.opMS, float64(time.Since(o0))/1e6)
		w.e.chk.op(err == nil && codeInstrs(back) == codeInstrs(img.Res),
			"build %s: image does not survive the gob round trip (%v)", op, err)
		ps.codeInstrs += int64(codeInstrs(img.Res))
		ps.gobBytes += int64(size)
	}
	ps.wall = time.Since(t0).Seconds()
	return ps, nil
}

// sameArraysAtEveryLevel runs a small program at O0..O3 and compares every
// array with the O0 run's.
func sameArraysAtEveryLevel(p *program) error {
	var want map[string][]float64
	for l, opt := range optLevels {
		pt := simPoint{label: p.name, sources: p.sources, opt: opt, checks: true,
			mach: func() *machine.Config { return machine.Scaled(4) }}
		res, err := pt.staged(nil, nil, runOpts{engine: exec.EngineSerial, tier: exec.TierAuto})
		if err != nil {
			return err
		}
		got := map[string][]float64{}
		for _, st := range res.RT.Arrays {
			got[st.Plan.Unit+"."+st.Plan.Name] = res.RT.Gather(st)
		}
		if l == 0 {
			want = got
			continue
		}
		for name, w := range want {
			g := got[name]
			if len(g) != len(w) {
				return fmt.Errorf("O%d: array %s has %d elements, O0 has %d", l, name, len(g), len(w))
			}
			for i := range w {
				if g[i] != w[i] {
					return fmt.Errorf("O%d: array %s element %d = %v, O0 has %v", l, name, i, g[i], w[i])
				}
			}
		}
	}
	return nil
}

// layers times the toolchain stages one by one over the corpus, and the
// distribution mathematics and the advisor's static stage on fixed inputs.
func (w *toolchainWorkload) layers(tr *tracer, traced passStat, m map[string]float64) error {
	stageTimes(tr, traced.wall*1000, m)
	gobMS, nGob := tr.total("codegen.image_gob")
	m["codegen.image_gob_us"] = gobMS * 1000 / float64(nGob)
	m["codegen.image_gob_bytes"] = float64(traced.gobBytes) / float64(nGob)
	m["codegen.code_instrs"] = float64(traced.codeInstrs)

	var parse, analyze, xf0, xf3, linkT, encdec time.Duration
	var files, lines, links int
	for _, p := range w.progs {
		var objs []*obj.Object
		for name, src := range p.sources {
			files++
			lines += strings.Count(src, "\n")
			t0 := time.Now()
			f, err := fortran.Parse(name, src)
			parse += time.Since(t0)
			if err != nil {
				return err
			}
			for _, level := range []struct {
				opt xform.Options
				acc *time.Duration
			}{{xform.O0(), &xf0}, {xform.O3(), &xf3}} {
				t0 = time.Now()
				units, err := sema.AnalyzeFile(f)
				d := time.Since(t0)
				if err != nil {
					return err
				}
				analyze += d / 2 // AnalyzeFile runs once per transform level
				t0 = time.Now()
				for _, u := range units {
					xform.Transform(u, level.opt)
				}
				*level.acc += time.Since(t0)
			}
			o, err := obj.Compile(name, src)
			if err != nil {
				return err
			}
			t0 = time.Now()
			data, err := o.Encode()
			if err == nil {
				_, err = obj.Decode(data)
			}
			encdec += time.Since(t0)
			if err != nil {
				return err
			}
			objs = append(objs, o)
		}
		sort.Slice(objs, func(i, j int) bool { return objs[i].FileName < objs[j].FileName })
		t0 := time.Now()
		_, err := link.Link(objs, link.Config{Opt: xform.O3(), RuntimeChecks: true})
		linkT += time.Since(t0)
		links++
		if err != nil {
			return err
		}
	}
	us := func(d time.Duration, n int) float64 { return float64(d) / 1e3 / float64(n) }
	m["fortran.parse_us"] = us(parse, files)
	m["fortran.lines_per_s"] = float64(lines) / parse.Seconds()
	m["sema.analyze_us"] = us(analyze, files)
	m["xform.transform_us_o0"] = us(xf0, files)
	m["xform.transform_us_o3"] = us(xf3, files)
	m["obj.encode_decode_us"] = us(encdec, files)
	m["link.link_us"] = us(linkT, links)
	// Link re-analyzes and transforms every unit, then generates code:
	// what is left after its sema and xform children is codegen and the
	// pre-linker, by subtraction.
	residual := float64(linkT-analyze-xf3) / 1e3 / float64(links)
	if residual < 0 {
		residual = 0
	}
	m["link.codegen_residual_us"] = residual

	for _, pair := range []struct {
		suffix   string
		from, to dist.Spec
	}{
		{"blk", spec2(dist.Dim{Kind: dist.Star}, dist.Dim{Kind: dist.Block}), spec2(dist.Dim{Kind: dist.Block}, dist.Dim{Kind: dist.Star})},
		{"cyc", spec2(dist.Dim{Kind: dist.BlockCyclic, Chunk: 8}, dist.Dim{Kind: dist.Star}), spec2(dist.Dim{Kind: dist.Block}, dist.Dim{Kind: dist.Star})},
	} {
		if err := distProbe(pair.suffix, pair.from, pair.to, m); err != nil {
			return err
		}
	}

	// The advisor's static stages (analysis, candidates, cost model,
	// rewriting) on the plain transpose; verification is stubbed out.
	src := oneSource(workloads.Transpose(fullSim.transN, 1, workloads.Plain))
	t0 := time.Now()
	_, err := advisor.Advise(src, advisor.Options{Procs: []int{16},
		VerifyBatch: func(points []advisor.VerifyPoint) ([]int64, error) {
			out := make([]int64, len(points))
			for i := range out {
				out[i] = int64(1000 + i)
			}
			return out, nil
		}})
	m["advisor.static_ms"] = float64(time.Since(t0)) / 1e6
	return err
}

func spec2(a, b dist.Dim) dist.Spec { return dist.Spec{Dims: []dist.Dim{a, b}} }

// distProbe times dist.Intersect and dist.Schedule for one redistribution
// of a 1024x1024 array over 96 processors, two per node.
func distProbe(suffix string, from, to dist.Spec, m map[string]float64) error {
	const n, procs, reps = 1024, 96, 20
	grids := make([]dist.Grid, 2)
	maps := make([][]dist.DimMap, 2)
	for i, s := range []dist.Spec{from, to} {
		var err error
		if grids[i], err = dist.NewGrid(s, procs); err != nil {
			return err
		}
		if maps[i], err = grids[i].Maps([]int{n, n}); err != nil {
			return err
		}
	}
	nodeOf := func(p int) int { return p / 2 }
	var xfers []dist.Xfer
	t0 := time.Now()
	for i := 0; i < reps; i++ {
		xfers = dist.Intersect(grids[0], maps[0], grids[1], maps[1], nodeOf)
	}
	m["dist.intersect_us_"+suffix] = float64(time.Since(t0)) / 1e3 / reps
	var rounds [][]dist.Xfer
	t0 = time.Now()
	for i := 0; i < reps; i++ {
		rounds = dist.Schedule(xfers)
	}
	m["dist.schedule_us_"+suffix] = float64(time.Since(t0)) / 1e3 / reps
	m["dist.schedule_rounds_"+suffix] = float64(len(rounds))
	return nil
}
