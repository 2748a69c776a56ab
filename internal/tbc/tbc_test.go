package tbc

import (
	"math/rand"
	"testing"

	"repro/internal/bvh"
	"repro/internal/geom"
	"repro/internal/kernels"
	"repro/internal/memsys"
	"repro/internal/scene"
	"repro/internal/simt"
	"repro/internal/vec"
)

func buildTBC(t testing.TB, nrays, warps, wpb int) (*simt.SMX, *Wrapper, *kernels.Aila, *kernels.Pool, *bvh.BVH) {
	t.Helper()
	s := scene.Generate(scene.ConferenceRoom, 1200)
	bv, err := bvh.Build(s.Tris, bvh.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	data := kernels.NewSceneData(bv)
	rnd := rand.New(rand.NewSource(3))
	rays := make([]geom.Ray, nrays)
	for i := range rays {
		o := vec.New(float32(rnd.Float64())*18+1, float32(rnd.Float64())*5+0.3, float32(rnd.Float64())*10+1)
		d := vec.New(float32(rnd.Float64()*2-1), float32(rnd.Float64()*2-1), float32(rnd.Float64()*2-1)).Norm()
		rays[i] = geom.NewRay(o, d)
	}
	pool := &kernels.Pool{Rays: rays}
	k := kernels.NewAila(data, pool, warps*32, kernels.AilaConfig{})
	w := New(Config{WarpsPerBlock: wpb}, k, warps, 32)
	cfg := simt.DefaultConfig()
	cfg.NumSMX = 1
	cfg.MaxWarpsPerSMX = warps
	cfg.MaxCycles = 1 << 24
	l2 := memsys.NewL2(cfg.Mem)
	smx, err := simt.NewSMX(0, cfg, k, w.Hooks(), l2)
	if err != nil {
		t.Fatal(err)
	}
	smx.LaunchAll(0)
	return smx, w, k, pool, bv
}

func TestBlockAssignment(t *testing.T) {
	k := &kernels.Aila{}
	w := New(Config{WarpsPerBlock: 6}, k, 14, 32)
	if len(w.blocks) != 3 {
		t.Fatalf("14 warps / 6 per block = %d blocks, want 3", len(w.blocks))
	}
	if len(w.blocks[2].warps) != 2 {
		t.Errorf("last block has %d warps, want 2", len(w.blocks[2].warps))
	}
	if w.warpBlock[13] != 2 {
		t.Errorf("warp 13 in block %d", w.warpBlock[13])
	}
}

func TestTBCTracesCorrectly(t *testing.T) {
	smx, w, k, pool, bv := buildTBC(t, 1500, 12, 6)
	st, err := smx.Run()
	if err != nil {
		t.Fatal(err)
	}
	if pool.Remaining() != 0 {
		t.Fatalf("pool not drained")
	}
	bad := 0
	for i, r := range pool.Rays {
		want := bv.Intersect(r, nil)
		got := k.Hits[i]
		if got.TriIndex != want.TriIndex {
			if got.TriIndex >= 0 && want.TriIndex >= 0 {
				d := got.T - want.T
				if d < 1e-4 && d > -1e-4 {
					continue
				}
			}
			bad++
		}
	}
	if bad > 0 {
		t.Errorf("%d/%d wrong hits", bad, len(pool.Rays))
	}
	if w.Stats().Compactions == 0 || w.Stats().Syncs == 0 {
		t.Errorf("TBC never compacted: %+v", w.Stats())
	}
	if st.BarrierStallCycles == 0 {
		t.Errorf("no barrier stalls recorded")
	}
	// No threads may be stranded in pending lists.
	for _, tb := range w.blocks {
		for target, perLane := range tb.pending {
			for _, col := range perLane {
				if len(col) > 0 {
					t.Fatalf("threads stranded pending target %d", target)
				}
			}
		}
	}
}

func TestTBCEfficiencyAboveBaseline(t *testing.T) {
	smxT, _, _, _, _ := buildTBC(t, 2000, 12, 6)
	stT, err := smxT.Run()
	if err != nil {
		t.Fatal(err)
	}
	// Baseline without TBC on the same workload.
	s := scene.Generate(scene.ConferenceRoom, 1200)
	bv, err := bvh.Build(s.Tris, bvh.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	data := kernels.NewSceneData(bv)
	rnd := rand.New(rand.NewSource(3))
	rays := make([]geom.Ray, 2000)
	for i := range rays {
		o := vec.New(float32(rnd.Float64())*18+1, float32(rnd.Float64())*5+0.3, float32(rnd.Float64())*10+1)
		d := vec.New(float32(rnd.Float64()*2-1), float32(rnd.Float64()*2-1), float32(rnd.Float64()*2-1)).Norm()
		rays[i] = geom.NewRay(o, d)
	}
	pool := &kernels.Pool{Rays: rays}
	k := kernels.NewAila(data, pool, 12*32, kernels.AilaConfig{})
	cfg := simt.DefaultConfig()
	cfg.NumSMX = 1
	cfg.MaxWarpsPerSMX = 12
	cfg.MaxCycles = 1 << 24
	l2 := memsys.NewL2(cfg.Mem)
	smxB, err := simt.NewSMX(0, cfg, k, simt.Hooks{}, l2)
	if err != nil {
		t.Fatal(err)
	}
	smxB.LaunchAll(0)
	stB, err := smxB.Run()
	if err != nil {
		t.Fatal(err)
	}
	if stT.SIMDEfficiency(32) <= stB.SIMDEfficiency(32) {
		t.Errorf("TBC efficiency %.3f not above baseline %.3f",
			stT.SIMDEfficiency(32), stB.SIMDEfficiency(32))
	}
}
