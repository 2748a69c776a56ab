// Benchmarks regenerating the paper's tables and figures. Each bench
// runs the corresponding experiment at a reduced default scale (use
// cmd/drsbench for full parameter control, -paper for paper scale) and
// reports the headline quantity of that artifact as custom metrics.
// With -v the full text tables are logged.
package main

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/scene"
)

// benchParams keeps the benches at a scale where the whole suite runs
// in a few minutes.
func benchParams() experiments.Params {
	p := experiments.DefaultParams()
	p.Tris = 12000
	p.Width = 192
	p.Height = 144
	p.Bounces = 4
	return p
}

// BenchmarkFigure2 regenerates Figure 2: the per-bounce SIMD efficiency
// of the baseline kernel on the conference room scene. Reported metric:
// the overall efficiency collapse from B1 to B4 in percentage points.
func BenchmarkFigure2(b *testing.B) {
	p := benchParams()
	p.Bounces = 8
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Figure2Ctx(context.Background(), p)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) > 3 {
			b.ReportMetric(rows[0].Eff*100, "B1-eff-%")
			b.ReportMetric(rows[3].Eff*100, "B4-eff-%")
		}
		if i == 0 && b.N == 1 {
			b.Log("\n" + experiments.RenderFigure2(rows))
		}
	}
}

// BenchmarkFigure8 regenerates Figure 8's backup-row sweep (and the
// data behind Figure 9) on the conference room scene. Reported metric:
// DRS 1-row Mrays/s on bounce 2 and Aila's on the same bounce.
func BenchmarkFigure8(b *testing.B) {
	p := benchParams()
	for i := 0; i < b.N; i++ {
		cells, err := experiments.Figure8Ctx(context.Background(), p, 2, []scene.Benchmark{scene.ConferenceRoom})
		if err != nil {
			b.Fatal(err)
		}
		for _, c := range cells {
			if c.Bounce != 2 {
				continue
			}
			switch c.Config {
			case "1-row (no extra bank)":
				b.ReportMetric(c.Mrays, "drs-Mrays")
			case "aila":
				b.ReportMetric(c.Mrays, "aila-Mrays")
			}
		}
		if i == 0 && b.N == 1 {
			b.Log("\n" + experiments.RenderFigure8(cells, 2))
		}
	}
}

// BenchmarkFigure9 regenerates Figure 9: the rdctrl warp-issue stall
// rate versus backup-row count (conference room). Reported metric: the
// stall rate of the 1-row and 8-row configurations on bounce 2.
func BenchmarkFigure9(b *testing.B) {
	p := benchParams()
	for i := 0; i < b.N; i++ {
		cells, err := experiments.Figure8Ctx(context.Background(), p, 2, []scene.Benchmark{scene.ConferenceRoom})
		if err != nil {
			b.Fatal(err)
		}
		for _, c := range cells {
			if c.Bounce != 2 {
				continue
			}
			switch c.Config {
			case "1-row":
				b.ReportMetric(c.StallRate*100, "stall-1row-%")
			case "8-row":
				b.ReportMetric(c.StallRate*100, "stall-8row-%")
			}
		}
		if i == 0 && b.N == 1 {
			b.Log("\n" + experiments.RenderFigure9(cells, 2))
		}
	}
}

// BenchmarkTable2 regenerates Table 2: performance under 6/9/12/18
// swap buffers (fairy forest). Reported metric: mean swap cycles at 6
// and 18 buffers — the paper's 31.6 vs 22.0 ordering.
func BenchmarkTable2(b *testing.B) {
	p := benchParams()
	for i := 0; i < b.N; i++ {
		cells, err := experiments.Table2Ctx(context.Background(), p, 2, []scene.Benchmark{scene.FairyForest})
		if err != nil {
			b.Fatal(err)
		}
		for _, c := range cells {
			if c.Bounce != 2 {
				continue
			}
			switch c.Buffers {
			case 6:
				b.ReportMetric(c.MeanSwapCycles, "swap6-cyc")
			case 18:
				b.ReportMetric(c.MeanSwapCycles, "swap18-cyc")
			}
		}
		if i == 0 && b.N == 1 {
			b.Log("\n" + experiments.RenderTable2(cells, 2))
		}
	}
}

// BenchmarkFigure10 regenerates Figure 10: SIMD efficiency with
// utilization breakdown for Aila/DMK/TBC/DRS (conference room).
// Reported metric: overall efficiencies.
func BenchmarkFigure10(b *testing.B) {
	p := benchParams()
	for i := 0; i < b.N; i++ {
		cells, err := experiments.Figure10Ctx(context.Background(), p, 3, []scene.Benchmark{scene.ConferenceRoom})
		if err != nil {
			b.Fatal(err)
		}
		for _, c := range cells {
			if c.Bounce != 0 {
				continue
			}
			b.ReportMetric(c.Eff*100, c.Policy+"-eff-%")
		}
		if i == 0 && b.N == 1 {
			b.Log("\n" + experiments.RenderFigure10(cells, 3))
		}
	}
}

// BenchmarkFigure11 regenerates Figure 11: performance and speedups of
// DMK, TBC and DRS over Aila (conference room). Reported metric: the
// DRS overall speedup factor.
func BenchmarkFigure11(b *testing.B) {
	p := benchParams()
	for i := 0; i < b.N; i++ {
		cells, err := experiments.Figure10Ctx(context.Background(), p, 3, []scene.Benchmark{scene.ConferenceRoom})
		if err != nil {
			b.Fatal(err)
		}
		var aila, drs float64
		for _, c := range cells {
			if c.Bounce != 0 {
				continue
			}
			switch c.Policy {
			case "aila":
				aila = c.Mrays
			case "drs":
				drs = c.Mrays
			}
		}
		if aila > 0 {
			b.ReportMetric(drs/aila, "drs-speedup-x")
		}
		if i == 0 && b.N == 1 {
			b.Log("\n" + experiments.RenderFigure11(cells, 3))
		}
	}
}

// benchFigure10Par measures the Figure 10 grid at a fixed scheduler
// worker count: the cellsched wall-clock comparison (its recorded
// medians are in CHANGES.md). The workload is cached once outside the timed
// loop so the benchmark isolates simulation scheduling, not scene
// builds.
func benchFigure10Par(b *testing.B, par int) {
	p := benchParams()
	p.Bounces = 2
	p.Options.Parallelism = par
	p.Cache = experiments.NewWorkloadCache()
	if _, err := p.Cache.Get(scene.ConferenceRoom, p); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cells, err := experiments.Figure10Ctx(context.Background(), p, 2, []scene.Benchmark{scene.ConferenceRoom})
		if err != nil {
			b.Fatal(err)
		}
		if len(cells) == 0 {
			b.Fatal("no cells")
		}
	}
}

func BenchmarkFigure10Par1(b *testing.B) { benchFigure10Par(b, 1) }
func BenchmarkFigure10Par2(b *testing.B) { benchFigure10Par(b, 2) }
func BenchmarkFigure10Par4(b *testing.B) { benchFigure10Par(b, 4) }

// BenchmarkOverheadModel regenerates the §4.5 hardware overhead
// arithmetic. Reported metric: DRS storage bytes per SMX.
func BenchmarkOverheadModel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		txt := experiments.Overhead(core.DefaultConfig())
		if len(txt) == 0 {
			b.Fatal("empty overhead report")
		}
		if i == 0 && b.N == 1 {
			b.Log("\n" + txt)
		}
	}
}
