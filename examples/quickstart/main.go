// Quickstart: build a scene, trace a bounce of path-traced rays on the
// simulated GPU with the software baseline and with the DRS, and
// compare SIMD efficiency and performance — the paper's headline result
// in ~40 lines of API use.
package main

import (
	"fmt"
	"log"

	"repro/internal/bvh"
	"repro/internal/harness"
	"repro/internal/kernels"
	"repro/internal/render"
	"repro/internal/scene"
)

func main() {
	// 1. A benchmark scene and its BVH.
	s := scene.Generate(scene.ConferenceRoom, 20000)
	bv, err := bvh.Build(s.Tris, bvh.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}

	// 2. Path-trace it on the CPU, capturing per-bounce ray streams.
	cam := render.CameraFor(scene.ConferenceRoom, 320, 240)
	res, err := render.Render(s, bv, cam, render.Config{
		Width: 320, Height: 240, SamplesPerPixel: 1, MaxDepth: 8, CaptureTraces: true,
	})
	if err != nil {
		log.Fatal(err)
	}
	rays := res.Traces.Bounce(3).Rays // incoherent secondary rays
	fmt.Printf("bounce 3: %d rays, directional coherence %.2f\n",
		len(rays), res.Traces.Bounce(3).Coherence(32))

	// 3. Trace the stream on the simulated GTX780, both ways.
	data := kernels.NewSceneData(bv)
	opt := harness.DefaultOptions()
	for _, policy := range []string{"aila", "drs"} {
		r, err := harness.RunNamed(policy, rays, data, opt)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-4s  SIMD efficiency %5.1f%%   %7.1f Mrays/s\n",
			policy, r.SIMDEff*100, r.Mrays)
	}
}
