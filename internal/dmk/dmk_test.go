package dmk

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

func buildDMK(t testing.TB, nrays, warps int) (*simt.SMX, *Wrapper, *kernels.Aila, *kernels.Pool, *bvh.BVH) {
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
	w := New(DefaultConfig(), k, warps, 32)
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

func TestDefaultConfig(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.SpawnBanks != 32 {
		t.Errorf("spawn banks = %d", cfg.SpawnBanks)
	}
	if cfg.RegsPerThread != kernels.RayRegisters {
		t.Errorf("regs per thread = %d", cfg.RegsPerThread)
	}
}

func TestDMKTracesCorrectly(t *testing.T) {
	smx, w, k, pool, bv := buildDMK(t, 1500, 8)
	st, err := smx.Run()
	if err != nil {
		t.Fatal(err)
	}
	if pool.Remaining() != 0 {
		t.Fatalf("pool not drained")
	}
	if w.QueuedThreads() != 0 {
		t.Errorf("threads stranded in spawn memory: %d", w.QueuedThreads())
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
	if w.Stats().Respawns == 0 {
		t.Errorf("no respawns on incoherent rays")
	}
	if st.SIInstrs == 0 {
		t.Errorf("no SI instructions recorded")
	}
	if st.SpawnConflictCycles == 0 {
		t.Errorf("no spawn contention recorded")
	}
}

func TestDMKImprovesEfficiencyOverBaseline(t *testing.T) {
	// Run the same incoherent workload with and without DMK.
	smxD, _, _, _, _ := buildDMK(t, 2000, 8)
	stD, err := smxD.Run()
	if err != nil {
		t.Fatal(err)
	}

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
	k := kernels.NewAila(data, pool, 8*32, kernels.AilaConfig{})
	cfg := simt.DefaultConfig()
	cfg.NumSMX = 1
	cfg.MaxWarpsPerSMX = 8
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
	if stD.SIMDEfficiency(32) <= stB.SIMDEfficiency(32) {
		t.Errorf("DMK efficiency %.3f not above baseline %.3f",
			stD.SIMDEfficiency(32), stB.SIMDEfficiency(32))
	}
}
