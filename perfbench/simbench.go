package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/archconfig"
	"repro/internal/cellsched"
	"repro/internal/experiments"
	"repro/internal/harness"
	"repro/internal/metrics"
	"repro/internal/scene"
)

// streamSpec names the seeded windows a simulation workload cuts from
// one scene's captured bounce streams.
type streamSpec struct {
	scene   scene.Benchmark
	bounces []int
}

// cell is one device run: one policy on one window.
type cell struct {
	key    string // "conference/B1/drs"
	policy string
	win    *window
}

// simBench is a workload of independent device runs: the paper-figure
// grid, or a few runs on one large device.
type simBench struct {
	seed     uint64
	arch     string // builtin device model
	params   experiments.Params
	streams  []streamSpec
	windowSz int
	policies []string
	// par is the cell scheduler's worker count; 0 runs the cells in
	// order through the harness alone, bypassing the scheduler.
	par int

	opt     harness.Options
	windows []*window
	cells   []cell
	digests []string

	// Traced-round accumulations. Simulated counts come from the first
	// traced round only, so they repeat exactly whatever the round
	// count; host times are averaged over every traced round.
	tracedRounds int
	aggs         map[string]*simAgg
	runS         map[string]float64
	busy, tail   float64
}

func newGrid(seed uint64, _ string) workload {
	return &simBench{
		seed:   seed,
		arch:   "gtx780",
		params: experiments.DefaultParams(), // EXPERIMENTS.md scale: 20000 tris, 320x240, 1 spp
		streams: []streamSpec{
			{scene.ConferenceRoom, []int{1, 3}},
			{scene.CrytekSponza, []int{1, 3}},
		},
		windowSz: 48_000,
		policies: policies(),
		par:      2,
	}
}

func newModernBig(seed uint64, _ string) workload {
	p := experiments.DefaultParams()
	p.Width, p.Height = 640, 480
	return &simBench{
		seed:     seed,
		arch:     "modern-big",
		params:   p,
		streams:  []streamSpec{{scene.ConferenceRoom, []int{2}}},
		windowSz: 131_072,
		policies: []string{"drs", "aila"},
	}
}

func (b *simBench) setup(ctx context.Context, tr *tracer) error {
	ac, err := archconfig.Builtin(b.arch)
	if err != nil {
		return err
	}
	opt, err := harness.ApplyArch(ac, b.params.Options)
	if err != nil {
		return err
	}
	opt.Parallelism = b.par
	var wins []*window
	for _, ss := range b.streams {
		id := tr.begin("experiments.BuildWorkload", 0)
		w, err := experiments.BuildWorkload(ss.scene, b.params)
		tr.end(id)
		if err != nil {
			return err
		}
		for _, bn := range ss.bounces {
			key := fmt.Sprintf("%s/B%d", ss.scene, bn)
			rays := w.Traces.Bounce(bn).Rays
			start, err := windowStart(b.seed, key, len(rays), b.windowSz)
			if err != nil {
				return err
			}
			wins = append(wins, &window{key: key, rays: rays[start : start+b.windowSz], data: w.Data, bvh: w.BVH})
		}
	}
	b.opt, b.windows, b.cells = opt, wins, nil
	for _, win := range wins {
		for _, p := range b.policies {
			b.cells = append(b.cells, cell{key: win.key + "/" + p, policy: p, win: win})
		}
	}
	b.digests = make([]string, len(b.cells))
	return nil
}

func (b *simBench) prepare() {
	for _, w := range b.windows {
		w.reference()
	}
}

func (b *simBench) round(ctx context.Context, tr *tracer) (roundResult, error) {
	opt := b.opt
	opt.Observe = tr.on // per-layer counts come from the registry snapshot
	results := make([]*harness.Result, len(b.cells))
	runCell := func(i, parent int) error {
		c := b.cells[i]
		id := tr.begin("harness.run/"+c.policy, parent)
		res, err := harness.RunNamedCtx(ctx, c.policy, c.win.rays, c.win.data, opt)
		tr.end(id)
		results[i] = res
		return err
	}
	root := tr.begin("round", 0)
	wall, alloc, runErr := measure(func() error {
		if b.par == 0 {
			for i := range b.cells {
				if err := runCell(i, root); err != nil {
					return err
				}
			}
			return nil
		}
		grid := tr.begin("cellsched.RunCtx", root)
		defer tr.end(grid)
		cells := make([]cellsched.Cell[struct{}], len(b.cells))
		for i, c := range b.cells {
			cells[i] = cellsched.Cell[struct{}]{Key: c.key, Run: func() (struct{}, error) {
				id := tr.begin("cellsched.cell", grid)
				defer tr.end(id)
				return struct{}{}, runCell(i, id)
			}}
		}
		_, err := cellsched.RunCtx(ctx, cells, b.par)
		return err
	})
	tr.end(root)
	if runErr != nil {
		fmt.Fprintf(os.Stderr, "perfbench: round: %v\n", runErr)
	}

	// The job a user waits on is the whole round: the figure grid, or
	// the drs-versus-aila comparison.
	r := roundResult{wall: wall, alloc: alloc, jobs: []float64{wall}}
	first := tr.on && b.aggs == nil
	if first {
		b.aggs = make(map[string]*simAgg)
	}
	for i, res := range results {
		c := b.cells[i]
		r.attempted++
		if res == nil {
			r.failed++
			continue
		}
		r.simInstrs += res.GPU.Stats.WarpInstrs
		bad := c.win.wrongHits(res.Hits)
		d := statsDigest(res)
		if b.digests[i] == "" {
			b.digests[i] = d
		}
		if bad > 0 || d != b.digests[i] {
			r.failed++
			fmt.Fprintf(os.Stderr, "perfbench: %s: %d hits differ from bvh.Intersect; stats digest %s, first round %s\n",
				c.key, bad, d, b.digests[i])
			continue
		}
		if first {
			if b.aggs[c.policy] == nil {
				b.aggs[c.policy] = &simAgg{}
			}
			b.aggs[c.policy].addSnapshot(snapshotMap(res.Metrics))
		}
	}
	if tr.on {
		b.noteSpans(tr.since(root))
	}
	return r, nil
}

// noteSpans folds one traced round's spans into the per-layer host
// times: harness time per policy and the cell scheduler's occupancy.
func (b *simBench) noteSpans(spans []span) {
	if b.runS == nil {
		b.runS = make(map[string]float64)
	}
	b.tracedRounds++
	var cells []span
	for _, s := range spans {
		if p, ok := strings.CutPrefix(s.Name, "harness.run/"); ok {
			b.runS[p] += float64(s.dur()) / 1e9
		}
		if s.Name == "cellsched.cell" {
			cells = append(cells, s)
		}
	}
	for _, g := range spans {
		if g.Name != "cellsched.RunCtx" {
			continue
		}
		var cellNS int64
		for _, c := range cells {
			cellNS += c.dur()
		}
		b.busy += float64(cellNS) / float64(int64(b.par)*g.dur())
		b.tail += float64(tailTime(g.Start, g.End, cells, b.par)) / 1e9
	}
}

func (b *simBench) layers(ctx context.Context, tr *tracer, m *metricSet) error {
	var scenes []scene.Benchmark
	for _, ss := range b.streams {
		scenes = append(scenes, ss.scene)
	}
	if err := buildProbe(tr, scenes, b.params, m); err != nil {
		return err
	}
	n := float64(max(1, b.tracedRounds))
	for _, p := range policies() {
		runS := b.runS[p] / n
		m.add("harness.run_s."+p, runS, "s")
		if a := b.aggs[p]; a != nil {
			m.add("harness.ns_per_winstr."+p, ratio(runS*1e9, float64(a.warpInstrs)), "ns")
		}
	}
	addSimMetrics(m, b.aggs)
	if err := observeOverhead(ctx, tr, m); err != nil {
		return err
	}
	m.add("cellsched.busy_ratio", b.busy/n, "ratio")
	m.add("cellsched.tail_s", b.tail/n, "s")
	return nil
}

func (b *simBench) report(w io.Writer) {
	for i, c := range b.cells {
		fmt.Fprintf(w, "digest %s %s rays=%d\n", c.key, b.digests[i], len(c.win.rays))
	}
}

func (b *simBench) close() error { return nil }

// snapshotMap keys a registry snapshot by path.
func snapshotMap(s *metrics.Snapshot) map[string]int64 {
	out := make(map[string]int64, len(s.Paths))
	for i, p := range s.Paths {
		out[p] = s.Values[i]
	}
	return out
}
