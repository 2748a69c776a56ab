package main

import (
	"context"
	"fmt"
	"time"

	"repro/internal/bvh"
	"repro/internal/experiments"
	"repro/internal/harness"
	"repro/internal/render"
	"repro/internal/scene"
	"repro/internal/trace"
)

// buildProbe times the three stages of a workload build — procedural
// scene, BVH, path-traced capture — for each scene at p's size, through
// the same public calls experiments.BuildWorkload makes.
func buildProbe(tr *tracer, scenes []scene.Benchmark, p experiments.Params, m *metricSet) error {
	var sceneS, bvhS, renderS float64
	rays := 0
	timed := func(name string, acc *float64, f func() error) error {
		id := tr.begin(name, 0)
		t0 := time.Now()
		err := f()
		*acc += time.Since(t0).Seconds()
		tr.end(id)
		return err
	}
	for _, b := range scenes {
		var s *scene.Scene
		var bv *bvh.BVH
		var res *render.Result
		err := timed("scene.Generate", &sceneS, func() error { s = scene.Generate(b, p.Tris); return nil })
		if err == nil {
			err = timed("bvh.Build", &bvhS, func() (err error) { bv, err = bvh.Build(s.Tris, bvh.DefaultOptions()); return err })
		}
		if err == nil {
			err = timed("render.Render", &renderS, func() (err error) {
				res, err = render.Render(s, bv, render.CameraFor(b, p.Width, p.Height), render.Config{
					Width: p.Width, Height: p.Height, SamplesPerPixel: p.SPP,
					MaxDepth: trace.MaxBounces, CaptureTraces: true,
				})
				return err
			})
		}
		if err != nil {
			return fmt.Errorf("build probe %s: %w", b, err)
		}
		rays += res.Traces.TotalRays()
	}
	m.add("experiments.scene_s", sceneS, "s")
	m.add("experiments.bvh_s", bvhS, "s")
	m.add("experiments.render_s", renderS, "s")
	m.add("experiments.rays", float64(rays), "rays")
	return nil
}

// observeOverhead runs one fixed drs cell — conference bounce 1 at the
// drsd spec defaults (4000 tris, 160x120) on gtx780 — with the metrics
// registry off and on, alternating, and returns on/off of the medians.
func observeOverhead(ctx context.Context, tr *tracer, m *metricSet) error {
	p := experiments.DefaultParams()
	p.Tris, p.Width, p.Height = 4000, 160, 120
	w, err := experiments.BuildWorkload(scene.ConferenceRoom, p)
	if err != nil {
		return err
	}
	rays := w.BounceRays(1, p)
	var off, on []float64
	for i := 0; i < 3; i++ {
		for _, observe := range []bool{false, true} {
			opt := p.Options
			opt.Observe = observe
			id := tr.begin(fmt.Sprintf("harness.observe_probe/%t", observe), 0)
			t0 := time.Now()
			_, err := harness.RunNamedCtx(ctx, "drs", rays, w.Data, opt)
			d := time.Since(t0).Seconds()
			tr.end(id)
			if err != nil {
				return err
			}
			if observe {
				on = append(on, d)
			} else {
				off = append(off, d)
			}
		}
	}
	m.add("metrics.observe_overhead", ratio(median(on), median(off)), "ratio")
	return nil
}
