package ser_test

import (
	"strings"
	"testing"

	"repro/internal/bvh"
	"repro/internal/geom"
	"repro/internal/harness"
	"repro/internal/kernels"
	"repro/internal/render"
	"repro/internal/reorder"
	"repro/internal/scene"
	"repro/internal/ser"
)

// workload builds a small incoherent secondary-ray stream.
func workload(t *testing.T) ([]geom.Ray, *kernels.SceneData, *bvh.BVH) {
	t.Helper()
	s := scene.Generate(scene.ConferenceRoom, 1200)
	bv, err := bvh.Build(s.Tris, bvh.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	cam := render.CameraFor(scene.ConferenceRoom, 48, 36)
	res, err := render.Render(s, bv, cam, render.Config{
		Width: 48, Height: 36, SamplesPerPixel: 1, MaxDepth: 4, CaptureTraces: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	rays := res.Traces.Bounce(2).Rays
	if len(rays) < 300 {
		t.Fatalf("workload too small: %d rays", len(rays))
	}
	return rays, kernels.NewSceneData(bv), bv
}

func smallOptions() harness.Options {
	opt := harness.DefaultOptions()
	opt.Simt.NumSMX = 2
	opt.Simt.MaxCycles = 1 << 24
	opt.AilaWarps = 8
	return opt
}

// TestSERMatchesReference: reorder-at-hit must not change any hit, and
// the run must be bit-deterministic (the harness replays the whole
// simulation and byte-compares).
func TestSERMatchesReference(t *testing.T) {
	rays, data, bv := workload(t)
	opt := smallOptions()
	opt.CheckDeterminism = true
	res, err := harness.RunNamed("ser", rays, data, opt)
	if err != nil {
		t.Fatal(err)
	}
	bad := 0
	for i, r := range rays {
		want := bv.Intersect(r, nil)
		got := res.Hits[i]
		if got.TriIndex != want.TriIndex {
			if got.TriIndex >= 0 && want.TriIndex >= 0 && abs(got.T-want.T) < 1e-4 {
				continue
			}
			bad++
			if bad <= 3 {
				t.Errorf("ray %d: got tri %d (t=%v), want tri %d (t=%v)",
					i, got.TriIndex, got.T, want.TriIndex, want.T)
			}
		}
	}
	if bad > 0 {
		t.Fatalf("%d/%d wrong hits", bad, len(rays))
	}
	if res.Policy != "ser" {
		t.Errorf("Result.Policy = %q", res.Policy)
	}
}

// TestSERReordersIncoherentRays: on bounce-2 rays the window must see
// real traffic and re-form warps, and the bounded window must hold.
func TestSERReordersIncoherentRays(t *testing.T) {
	rays, data, _ := workload(t)
	cfg := ser.DefaultConfig()
	opt := smallOptions()
	opt.Observe = true
	opt.PolicyOverrides = []reorder.Policy{ser.NewPolicy(cfg)}
	res, err := harness.RunNamed("ser", rays, data, opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Reorder.Reorders == 0 || res.Reorder.RaysMoved == 0 {
		t.Fatalf("SER did not reorder: %+v", res.Reorder)
	}
	if _, high := serCounter(t, res, "window_high_water"); high > int64(cfg.WindowSize) {
		t.Fatalf("window high water %d exceeds bound %d", high, cfg.WindowSize)
	}
	if reorders, _ := serCounter(t, res, "reorders"); reorders != res.Reorder.Reorders {
		t.Errorf("generic reorders %d disagree with the registry's %d", res.Reorder.Reorders, reorders)
	}
	// The injected handoff instructions must show up as SI work.
	if bd := res.GPU.Stats.UtilizationBreakdown(32); bd.SI <= 0 {
		t.Errorf("SER charged no SI instructions")
	}
}

// TestSERTinyWindowSerializes: a window too small to park anything must
// fall back to IPDOM serialization and still trace correctly.
func TestSERTinyWindowSerializes(t *testing.T) {
	rays, data, bv := workload(t)
	rays = rays[:200]
	cfg := ser.DefaultConfig()
	cfg.WindowSize = 1 // below any MinDivergence split
	opt := smallOptions()
	opt.Observe = true
	opt.PolicyOverrides = []reorder.Policy{ser.NewPolicy(cfg)}
	res, err := harness.RunNamed("ser", rays, data, opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Reorder.RaysMoved != 0 {
		t.Fatalf("1-thread window parked %d threads", res.Reorder.RaysMoved)
	}
	if serialized, _ := serCounter(t, res, "serialized"); serialized == 0 {
		t.Errorf("no serialized divergences recorded")
	}
	for i, r := range rays {
		want := bv.Intersect(r, nil)
		if res.Hits[i].TriIndex != want.TriIndex && abs(res.Hits[i].T-want.T) >= 1e-4 {
			t.Fatalf("ray %d wrong with serializing window", i)
		}
	}
}

func TestSERPolicyValidate(t *testing.T) {
	p := ser.NewPolicy(ser.Config{WindowSize: -1})
	if p.Validate() == nil {
		t.Fatal("negative WindowSize accepted")
	}
	if err := ser.NewPolicy(ser.Config{}).Validate(); err != nil {
		t.Fatalf("zero config rejected: %v", err)
	}
	var _ reorder.Policy = p
}

// serCounter folds one SER counter of an observed run over every SMX,
// returning its sum and its maximum.
func serCounter(t *testing.T, res *harness.Result, name string) (sum, max int64) {
	t.Helper()
	found := false
	for i, path := range res.Metrics.Paths {
		if strings.HasSuffix(path, "/ser/"+name) {
			found = true
			v := res.Metrics.Values[i]
			sum += v
			if v > max {
				max = v
			}
		}
	}
	if !found {
		t.Fatalf("no ser/%s counter in the metrics snapshot", name)
	}
	return sum, max
}

func abs(f float32) float32 {
	if f < 0 {
		return -f
	}
	return f
}
