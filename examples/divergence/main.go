// Divergence reproduces the motivation of Figure 2 interactively: it
// traces every bounce of a conference-room render through the baseline
// kernel and prints how ray coherence and SIMD efficiency decay as rays
// bounce — the warp divergence problem the DRS exists to solve.
package main

import (
	"fmt"
	"log"
	"strings"

	"repro/internal/bvh"
	"repro/internal/harness"
	"repro/internal/kernels"
	"repro/internal/render"
	"repro/internal/scene"
)

func main() {
	s := scene.Generate(scene.ConferenceRoom, 20000)
	bv, err := bvh.Build(s.Tris, bvh.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}
	cam := render.CameraFor(scene.ConferenceRoom, 256, 192)
	res, err := render.Render(s, bv, cam, render.Config{
		Width: 256, Height: 192, SamplesPerPixel: 1, MaxDepth: 8, CaptureTraces: true,
	})
	if err != nil {
		log.Fatal(err)
	}
	data := kernels.NewSceneData(bv)
	opt := harness.DefaultOptions()

	fmt.Println("bounce  rays     coherence  SIMD-eff  bar")
	for b := 1; b <= 8; b++ {
		stream := res.Traces.Bounce(b)
		if len(stream.Rays) == 0 {
			break
		}
		r, err := harness.RunNamed("aila", stream.Rays, data, opt)
		if err != nil {
			log.Fatal(err)
		}
		bar := strings.Repeat("#", int(r.SIMDEff*40))
		fmt.Printf("B%d      %-8d %.3f      %5.1f%%    %s\n",
			b, len(stream.Rays), stream.Coherence(32), r.SIMDEff*100, bar)
	}
	fmt.Println("\nPrimary rays are coherent; bouncing randomizes them and SIMD efficiency collapses.")
	fmt.Println("Run examples/shuffle to watch the DRS repair it.")
}
