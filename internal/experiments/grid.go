package experiments

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/cellsched"
	"repro/internal/harness"
	"repro/internal/metrics"
	"repro/internal/reorder"
	"repro/internal/scene"
	"repro/internal/simt"
)

// point is one method configuration of a figure: the label that names
// it in cell keys and errors, the registered policy it runs, and the
// options it runs with (device model, policy overrides, scheduler).
type point struct {
	label  string
	policy string
	opt    harness.Options
}

// pinnedPoint returns a point that runs the configured instance pol.
// pol is prepended to opt's overrides, so it beats any later override
// of the same name, such as the DRS budget ApplyArch appends.
func pinnedPoint(label string, pol reorder.Policy, opt harness.Options) point {
	opt.PolicyOverrides = append([]reorder.Policy{pol}, opt.PolicyOverrides...)
	return point{label: label, policy: pol.Name(), opt: opt}
}

// namedPoints returns one point per policy name, each run with opt.
func namedPoints(names []string, opt harness.Options) []point {
	pts := make([]point, len(names))
	for i, n := range names {
		pts[i] = point{label: n, policy: n, opt: opt}
	}
	return pts
}

// summary is what the grid keeps of one simulation: a fixed handful of
// fields rather than the *harness.Result, whose Hits slice would keep
// every ray's hit alive until the figure is assembled.
type summary struct {
	ok             bool // false: the bounce stream was empty, cell skipped
	stats          simt.Stats
	rays           int
	reorder        reorder.Stats
	mrays          float64
	eff            float64
	rfShuffleShare float64
	l1TexMissRate  float64
	meanSwapCycles float64 // observed drs runs only
}

// runGrid is the experiment grid every figure runs through: for each
// scene, each point, and bounces 1..bounces, one simulation of the
// point's policy on that bounce's ray stream (capped per Params). The
// result is positional — out[s][pt][b-1] is scenes[s], points[pt],
// bounce b — and a bounce with an empty stream yields a summary with
// ok false. A figure is then its point list, a mapping from summaries
// to its cell type, and a renderer.
//
// Every simulation is an independent cellsched cell run on
// Options.Parallelism workers and collected in canonical order, so a
// figure is byte-identical at any worker count. One workload prefetch
// cell per scene leads the grid, so with N workers the first N scene
// builds run concurrently instead of every worker blocking on the
// first scene's singleflighted build. Workers stop claiming cells once
// ctx is done, and in-flight device runs abort at their next epoch
// barrier; an uncancelled run is unaffected by ctx.
func runGrid(ctx context.Context, p Params, fig string, scenes []scene.Benchmark, points []point, bounces int) ([][][]summary, error) {
	p = p.ensureCache()
	grid := make([]cellsched.Cell[summary], 0, len(scenes)*(1+len(points)*bounces))
	for _, b := range scenes {
		grid = append(grid, cellsched.Cell[summary]{
			Key: "workload/" + b.String(),
			Run: func() (summary, error) {
				_, err := p.workload(b)
				return summary{}, err
			},
		})
	}
	for _, b := range scenes {
		for _, pt := range points {
			for bounce := 1; bounce <= bounces; bounce++ {
				grid = append(grid, cellsched.Cell[summary]{
					Key: fmt.Sprintf("%s/%s/%s/B%d", fig, b, pt.label, bounce),
					Run: func() (summary, error) {
						w, err := p.workload(b)
						if err != nil {
							return summary{}, err
						}
						rays := w.BounceRays(bounce, p)
						if len(rays) == 0 {
							return summary{}, nil
						}
						res, err := harness.RunNamedCtx(ctx, pt.policy, rays, w.Data, pt.opt)
						if err != nil {
							return summary{}, fmt.Errorf("%s %s %s B%d: %w", fig, b, pt.label, bounce, err)
						}
						return summary{
							ok:             true,
							stats:          res.GPU.Stats,
							rays:           res.Rays,
							reorder:        res.Reorder,
							mrays:          res.Mrays,
							eff:            res.SIMDEff,
							rfShuffleShare: res.GPU.RFShuffleShare,
							l1TexMissRate:  res.GPU.L1TexMissRate,
							meanSwapCycles: meanSwapCycles(res.Metrics),
						}, nil
					},
				})
			}
		}
	}
	results, err := cellsched.RunCtx(ctx, grid, p.par())
	if err != nil {
		return nil, err
	}
	results = results[len(scenes):]
	out := make([][][]summary, len(scenes))
	for s := range out {
		out[s] = make([][]summary, len(points))
		for pt := range out[s] {
			out[s][pt], results = results[:bounces:bounces], results[bounces:]
		}
	}
	return out, nil
}

// meanSwapCycles is the mean duration of a completed DRS ray swap in an
// observed run: the swap cycles over the swaps completed, each summed
// across SMXs. It is 0 for a run without swaps or without a metrics
// snapshot (Options.Observe unset).
func meanSwapCycles(m *metrics.Snapshot) float64 {
	if m == nil {
		return 0
	}
	var sum, n int64
	for i, path := range m.Paths {
		switch {
		case strings.HasSuffix(path, "/drs/swap_cycle_sum"):
			sum += m.Values[i]
		case strings.HasSuffix(path, "/drs/swaps_completed"):
			n += m.Values[i]
		}
	}
	if n == 0 {
		return 0
	}
	return float64(sum) / float64(n)
}

// merge folds one point's per-bounce summaries into its overall figure,
// as the paper's Figure 11 does: total rays over the total cycles of
// every bounce launch (each bounce is a separate kernel launch) plus
// any modeled out-of-engine reordering cost, at opt's clock and warp
// width. Skipped bounces contribute nothing.
func merge(bounces []summary, opt harness.Options) summary {
	var m summary
	var cycles int64
	for _, r := range bounces {
		if !r.ok {
			continue
		}
		m.stats.Add(r.stats)
		cycles += r.stats.Cycles
		m.rays += r.rays
		m.reorder.Add(r.reorder)
	}
	m.stats.Cycles = cycles + m.reorder.CostCycles
	m.eff = m.stats.SIMDEfficiency(opt.Simt.WarpSize)
	m.mrays = m.stats.MraysPerSec(int64(m.rays), opt.Simt.ClockMHz)
	return m
}

// cellKey addresses one figure cell for the renderers: its scene, its
// point (policy, configuration label, or arch/sched/policy path) and
// its bounce (0 = the merged overall row).
type cellKey struct {
	scene  scene.Benchmark
	point  string
	bounce int
}

// indexCells maps each cell's key to the first cell that carries it.
func indexCells[C any](cells []C, key func(C) cellKey) map[cellKey]C {
	m := make(map[cellKey]C, len(cells))
	for _, c := range cells {
		k := key(c)
		if _, ok := m[k]; !ok {
			m[k] = c
		}
	}
	return m
}
