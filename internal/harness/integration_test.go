package harness

import (
	"bytes"
	"testing"

	"repro/internal/archconfig"
	"repro/internal/bvh"
	"repro/internal/core"
	"repro/internal/kernels"
	"repro/internal/render"
	"repro/internal/reorder"
	"repro/internal/scene"
	"repro/internal/trace"
)

// Hits must be identical regardless of how rays are partitioned across
// SMXs (no loss, duplication, or misindexing at partition boundaries).
func TestPartitioningPreservesHits(t *testing.T) {
	data, traces, _ := testWorkload(t, scene.FairyForest, 1500)
	rays := traces.Bounce(2).Rays
	opt := smallOptions()

	opt.Simt.NumSMX = 1
	one, err := RunNamed("aila", rays, data, opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.Simt.NumSMX = 5
	five, err := RunNamed("aila", rays, data, opt)
	if err != nil {
		t.Fatal(err)
	}
	for i := range rays {
		if one.Hits[i].TriIndex != five.Hits[i].TriIndex {
			t.Fatalf("ray %d: 1-SMX hit %d, 5-SMX hit %d", i, one.Hits[i].TriIndex, five.Hits[i].TriIndex)
		}
	}
}

// A trace stream written to the binary format and read back must
// simulate to identical results — the tracegen/drsbench file exchange.
func TestTraceFileRoundTripSimulatesIdentically(t *testing.T) {
	data, traces, _ := testWorkload(t, scene.ConferenceRoom, 1200)
	stream := traces.Bounce(2)
	var buf bytes.Buffer
	if err := stream.Write(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := trace.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	opt := smallOptions()
	direct, err := RunNamed("aila", stream.Rays, data, opt)
	if err != nil {
		t.Fatal(err)
	}
	fromFile, err := RunNamed("aila", loaded.Rays, data, opt)
	if err != nil {
		t.Fatal(err)
	}
	if direct.GPU.Stats.WarpInstrs != fromFile.GPU.Stats.WarpInstrs {
		t.Errorf("instruction counts differ: %d vs %d",
			direct.GPU.Stats.WarpInstrs, fromFile.GPU.Stats.WarpInstrs)
	}
	for i := range direct.Hits {
		if direct.Hits[i].TriIndex != fromFile.Hits[i].TriIndex {
			t.Fatalf("ray %d hits differ", i)
		}
	}
}

// Simulations must be exactly deterministic at any SMX count: the
// epoch-barrier engine drains L2 requests in fixed (smxID, issue-order)
// order at each epoch boundary, so cache state — and therefore cycle
// counts — no longer depends on goroutine scheduling.
func TestSimulationDeterministic(t *testing.T) {
	data, traces, _ := testWorkload(t, scene.CrytekSponza, 1500)
	rays := traces.Bounce(2).Rays
	opt := smallOptions()

	opt.Simt.NumSMX = 1
	var one *Result
	for i := 0; i < 3; i++ {
		res, err := RunNamed("drs", rays, data, opt)
		if err != nil {
			t.Fatal(err)
		}
		if one == nil {
			one = res
			continue
		}
		if res.GPU.Stats.Cycles != one.GPU.Stats.Cycles ||
			res.GPU.Stats.WarpInstrs != one.GPU.Stats.WarpInstrs ||
			res.Reorder.Reorders != one.Reorder.Reorders {
			t.Fatalf("single-SMX run %d differs: cycles %d vs %d, instrs %d vs %d, swaps %d vs %d",
				i, res.GPU.Stats.Cycles, one.GPU.Stats.Cycles,
				res.GPU.Stats.WarpInstrs, one.GPU.Stats.WarpInstrs,
				res.Reorder.Reorders, one.Reorder.Reorders)
		}
	}

	opt.Simt.NumSMX = 4
	var ref *Result
	for i := 0; i < 3; i++ {
		res, err := RunNamed("drs", rays, data, opt)
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = res
			continue
		}
		for j := range rays {
			if res.Hits[j].TriIndex != ref.Hits[j].TriIndex {
				t.Fatalf("multi-SMX run %d: hit %d differs", i, j)
			}
		}
		if res.GPU.Stats != ref.GPU.Stats {
			t.Errorf("multi-SMX run %d not bit-identical: cycles %d vs %d, instrs %d vs %d",
				i, res.GPU.Stats.Cycles, ref.GPU.Stats.Cycles,
				res.GPU.Stats.WarpInstrs, ref.GPU.Stats.WarpInstrs)
		}
	}
}

// TestAllScenesAllArchsCorrect runs every registered policy on all four
// scenes: hits must match the CPU BVH reference.
func TestAllScenesAllArchsCorrect(t *testing.T) {
	opt := smallOptions()
	for _, b := range scene.Benchmarks {
		data, traces, bv := testWorkload(t, b, 1200)
		rays := traces.Bounce(2).Rays
		for _, name := range Policies().Names() {
			res, err := RunNamed(name, rays, data, opt)
			if err != nil {
				t.Fatalf("%v/%s: %v", b, name, err)
			}
			verifyHits(t, b.String()+"/"+name, rays, res.Hits, bv)
		}
	}
}

// TestAnyHitParityAcrossArchitectures checks occlusion (any-hit) mode:
// every policy under every warp scheduler must agree with the reference
// occlusion query for every ray.
func TestAnyHitParityAcrossArchitectures(t *testing.T) {
	data, traces, bv := testWorkload(t, scene.CrytekSponza, 1500)
	rays := traces.Bounce(2).Rays
	for _, sched := range Schedulers().Names() {
		opt := smallOptions()
		opt.Sched = sched
		opt.Aila.AnyHit = true
		opt.WhileIf.AnyHit = true
		for _, name := range Policies().Names() {
			label := sched + "/" + name
			res, err := RunNamed(name, rays, data, opt)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			for i, r := range rays {
				if got, want := res.Hits[i].TriIndex >= 0, bv.IntersectAny(r, nil); got != want {
					t.Fatalf("%s ray %d: occluded=%v, want %v", label, i, got, want)
				}
			}
		}
	}
}

// TestRegistryHitOracle is the functional oracle over the scheduler and
// device-model registries: whichever policy, warp scheduler or builtin
// device model (applied through ApplyArch) traces a stream, the committed
// closest hits must match the CPU BVH reference.
func TestRegistryHitOracle(t *testing.T) {
	policies := Policies().Names()
	data, traces, bv := testWorkload(t, scene.CrytekSponza, 1500)
	rays := traces.Bounce(2).Rays
	t.Run("schedulers", func(t *testing.T) {
		for _, sched := range Schedulers().Names() {
			opt := smallOptions()
			opt.Sched = sched
			for _, name := range policies {
				res, err := RunNamed(name, rays, data, opt)
				if err != nil {
					t.Fatalf("%s/%s: %v", sched, name, err)
				}
				verifyHits(t, sched+"/"+name, rays, res.Hits, bv)
			}
		}
	})
	t.Run("archs", func(t *testing.T) {
		for _, arch := range archconfig.Names() {
			ac, err := archconfig.Builtin(arch)
			if err != nil {
				t.Fatal(err)
			}
			opt, err := ApplyArch(ac, smallOptions())
			if err != nil {
				t.Fatalf("%s: %v", arch, err)
			}
			for _, name := range policies {
				res, err := RunNamed(name, rays, data, opt)
				if err != nil {
					t.Fatalf("%s/%s: %v", arch, name, err)
				}
				verifyHits(t, arch+"/"+name, rays, res.Hits, bv)
			}
		}
	})
}

// TestIdealDRSFragmentsDoNotLivelock pins the idealized DRS of Figure 8
// on a stream small enough to strand uniform fragments of one ray state
// (a few leaf rays each) in several unbound rows. Ideal mode has no
// swap engine and regroups only mixed rows, so when the gate refused
// every fragment as growable, no warp ever ran again and the device
// spun to MaxCycles.
func TestIdealDRSFragmentsDoNotLivelock(t *testing.T) {
	s := scene.Generate(scene.FairyForest, 2000)
	bv, err := bvh.Build(s.Tris, bvh.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	cam := render.CameraFor(scene.FairyForest, 64, 48)
	tr, err := render.Render(s, bv, cam, render.Config{
		Width: 64, Height: 48, SamplesPerPixel: 1, MaxDepth: trace.MaxBounces, CaptureTraces: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	rays := tr.Traces.Bounce(2).Rays
	cfg := core.DefaultConfig()
	cfg.ExtraBank = true
	cfg.Ideal = true
	opt := DefaultOptions()
	opt.Simt.MaxCycles = 200000
	opt.PolicyOverrides = []reorder.Policy{core.NewPolicy(cfg)}
	res, err := RunNamed("drs", rays, kernels.NewSceneData(bv), opt)
	if err != nil {
		t.Fatal(err)
	}
	verifyHits(t, "fairy/ideal/B2", rays, res.Hits, bv)
}
