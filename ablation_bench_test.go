// Ablation benchmarks for the design choices DESIGN.md calls out:
// warp scheduling policy, speculative traversal, Kernel 1's if-body
// burst bounds, and the L1 texture cache size behind the backup-row
// thrashing observation. Each runs one configuration pair and reports
// the two outcomes as custom metrics.
package main

import (
	"testing"

	"repro/internal/bvh"
	"repro/internal/geom"
	"repro/internal/harness"
	"repro/internal/kernels"
	"repro/internal/render"
	"repro/internal/scene"
)

// ablationWorkload builds one incoherent-bounce workload shared by the
// ablation benches.
func ablationWorkload(b *testing.B) (*kernels.SceneData, []geom.Ray) {
	b.Helper()
	s := scene.Generate(scene.ConferenceRoom, 12000)
	bv, err := bvh.Build(s.Tris, bvh.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	cam := render.CameraFor(scene.ConferenceRoom, 192, 144)
	res, err := render.Render(s, bv, cam, render.Config{
		Width: 192, Height: 144, SamplesPerPixel: 1, MaxDepth: 3, CaptureTraces: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	return kernels.NewSceneData(bv), res.Traces.Bounce(3).Rays
}

// BenchmarkAblationScheduler compares greedy-then-oldest (Table 1)
// against loose round-robin scheduling for the DRS kernel.
func BenchmarkAblationScheduler(b *testing.B) {
	data, rays := ablationWorkload(b)
	for i := 0; i < b.N; i++ {
		for _, sched := range []string{"gto", "lrr"} {
			opt := harness.DefaultOptions()
			opt.Sched = sched
			r, err := harness.Run(harness.ArchDRS, rays, data, opt)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(r.Mrays, sched+"-Mrays")
		}
	}
}

// BenchmarkAblationSpeculation compares the Aila kernel with and
// without speculative traversal (the optimization Kernel 1 removes).
func BenchmarkAblationSpeculation(b *testing.B) {
	data, rays := ablationWorkload(b)
	for i := 0; i < b.N; i++ {
		for _, spec := range []bool{true, false} {
			opt := harness.DefaultOptions()
			opt.Aila.Speculative = spec
			r, err := harness.Run(harness.ArchAila, rays, data, opt)
			if err != nil {
				b.Fatal(err)
			}
			name := "spec-on"
			if !spec {
				name = "spec-off"
			}
			b.ReportMetric(r.SIMDEff*100, name+"-eff-%")
		}
	}
}

// BenchmarkAblationLeafBurst sweeps Kernel 1's if-body burst bound:
// small bursts raise rdctrl frequency, large bursts raise intra-body
// divergence.
func BenchmarkAblationLeafBurst(b *testing.B) {
	data, rays := ablationWorkload(b)
	for i := 0; i < b.N; i++ {
		for _, burst := range []int{1, 4, 16} {
			opt := harness.DefaultOptions()
			opt.WhileIf = kernels.WhileIfConfig{InnerBurst: burst, LeafBurst: burst}
			r, err := harness.Run(harness.ArchDRS, rays, data, opt)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(r.SIMDEff*100, metricName("burst", burst, "eff-%"))
		}
	}
}

// BenchmarkAblationTexCache halves and doubles the L1 texture cache to
// expose the working-set sensitivity behind the paper's backup-row
// thrashing note (§4.2).
func BenchmarkAblationTexCache(b *testing.B) {
	data, rays := ablationWorkload(b)
	for i := 0; i < b.N; i++ {
		for _, kb := range []int{12, 48, 96} {
			opt := harness.DefaultOptions()
			opt.Simt.Mem.L1TexKB = kb
			r, err := harness.Run(harness.ArchDRS, rays, data, opt)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(r.GPU.L1TexMissRate*100, metricName("l1t", kb, "miss-%"))
		}
	}
}

func metricName(prefix string, v int, suffix string) string {
	digits := ""
	if v == 0 {
		digits = "0"
	}
	for v > 0 {
		digits = string(rune('0'+v%10)) + digits
		v /= 10
	}
	return prefix + digits + "-" + suffix
}
