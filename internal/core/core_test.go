package core

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

func TestConfigWarpsAndRows(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.Warps() != 58 {
		t.Errorf("default (1 backup, no extra bank) warps = %d, want 58", cfg.Warps())
	}
	if cfg.Rows() != 61 {
		t.Errorf("default rows = %d, want 61 (58 warps + 1 backup + 2 empty)", cfg.Rows())
	}
	eb := cfg
	eb.ExtraBank = true
	if eb.Warps() != 60 {
		t.Errorf("extra-bank warps = %d, want 60", eb.Warps())
	}
	eb.BackupRows = 8
	if eb.Warps() != 60 || eb.Rows() != 70 {
		t.Errorf("extra-bank 8-row config: warps=%d rows=%d", eb.Warps(), eb.Rows())
	}
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{BackupRows: -1, SwapBuffers: 6, WarpSize: 32},
		{BackupRows: 1, SwapBuffers: 1, WarpSize: 32},
		{BackupRows: 1, SwapBuffers: 6, WarpSize: 0},
		{BackupRows: 40, SwapBuffers: 6, WarpSize: 32}, // no warps left
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("config %d should be invalid: %+v", i, c)
		}
	}
	if err := DefaultConfig().Validate(); err != nil {
		t.Errorf("default config invalid: %v", err)
	}
	ideal := Config{BackupRows: 1, SwapBuffers: 0, Ideal: true, WarpSize: 32}
	if err := ideal.Validate(); err != nil {
		t.Errorf("ideal config should not need swap buffers: %v", err)
	}
}

func TestBuffersPerRole(t *testing.T) {
	for in, want := range map[int]int{6: 2, 9: 3, 12: 4, 18: 6, 3: 1} {
		c := Config{SwapBuffers: in}
		if got := c.buffersPerRole(); got != want {
			t.Errorf("buffersPerRole(%d) = %d, want %d", in, got, want)
		}
	}
}

// buildDRS constructs a small DRS machine over a scene.
func buildDRS(t testing.TB, cfg Config, nrays int) (*simt.SMX, *Control, *kernels.WhileIf, *kernels.Pool, *bvh.BVH) {
	t.Helper()
	s := scene.Generate(scene.ConferenceRoom, 1200)
	bv, err := bvh.Build(s.Tris, bvh.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	data := kernels.NewSceneData(bv)
	rnd := rand.New(rand.NewSource(5))
	rays := make([]geom.Ray, nrays)
	for i := range rays {
		o := vec.New(float32(rnd.Float64())*18+1, float32(rnd.Float64())*5+0.3, float32(rnd.Float64())*10+1)
		d := vec.New(float32(rnd.Float64()*2-1), float32(rnd.Float64()*2-1), float32(rnd.Float64()*2-1)).Norm()
		rays[i] = geom.NewRay(o, d)
	}
	pool := &kernels.Pool{Rays: rays}
	k := kernels.NewWhileIf(data, pool, (cfg.Rows()-2)*cfg.warpSize())
	ctrl, err := NewControl(cfg, k)
	if err != nil {
		t.Fatal(err)
	}
	scfg := simt.DefaultConfig()
	scfg.NumSMX = 1
	scfg.MaxWarpsPerSMX = cfg.Warps()
	scfg.MaxCycles = 1 << 23
	l2 := memsys.NewL2(scfg.Mem)
	smx, err := simt.NewSMX(0, scfg, k, ctrl.Hooks(), l2)
	if err != nil {
		t.Fatal(err)
	}
	ctrl.Launch(smx)
	return smx, ctrl, k, pool, bv
}

func TestNewControlSlotMismatch(t *testing.T) {
	s := scene.Generate(scene.ConferenceRoom, 600)
	bv, err := bvh.Build(s.Tris, bvh.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	k := kernels.NewWhileIf(kernels.NewSceneData(bv), &kernels.Pool{Rays: make([]geom.Ray, 1)}, 32)
	if _, err := NewControl(DefaultConfig(), k); err == nil {
		t.Errorf("slot mismatch accepted")
	}
}

func TestControlInitialInvariants(t *testing.T) {
	_, ctrl, _, _, _ := buildDRS(t, DefaultConfig(), 100)
	if err := ctrl.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if ctrl.RowCount() != 61 {
		t.Errorf("rows = %d", ctrl.RowCount())
	}
	// The two reorganization rows are empty.
	for r := ctrl.RowCount() - 2; r < ctrl.RowCount(); r++ {
		for _, s := range ctrl.RowSlots(r) {
			if s != -1 {
				t.Errorf("reorg row %d not empty", r)
			}
		}
	}
	// Warps bound to their home rows.
	for w := 0; w < 58; w++ {
		if ctrl.WarpRow(w) != w {
			t.Errorf("warp %d bound to row %d", w, ctrl.WarpRow(w))
		}
	}
}

func TestDRSRunCorrectAndInvariant(t *testing.T) {
	cfg := DefaultConfig()
	cfg.WarpsOverride = 8 // small machine so 3000 rays reach steady state
	smx, ctrl, k, pool, bv := buildDRS(t, cfg, 3000)
	st, err := smx.Run()
	if err != nil {
		t.Fatal(err)
	}
	if err := ctrl.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if pool.Remaining() != 0 {
		t.Fatalf("pool not drained: %d", pool.Remaining())
	}
	bad := 0
	for i, r := range pool.Rays {
		want := bv.Intersect(r, nil)
		if k.Hits[i].TriIndex != want.TriIndex {
			if k.Hits[i].TriIndex >= 0 && want.TriIndex >= 0 {
				d := k.Hits[i].T - want.T
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
	if st.CtrlInstrs == 0 {
		t.Errorf("no rdctrl instructions issued")
	}
	if ctrl.Stats().SwapsCompleted == 0 {
		t.Errorf("no swaps completed")
	}
	if eff := st.SIMDEfficiency(32); eff < 0.5 {
		t.Errorf("DRS efficiency suspiciously low: %v", eff)
	}
	// Mean swap duration should be in a plausible range (the paper
	// reports ~31.6 cycles for 6 buffers).
	if mean := ctrl.Stats().MeanSwapCycles(); mean < 4 || mean > 200 {
		t.Errorf("mean swap cycles = %v, implausible", mean)
	}
}

func TestMoreSwapBuffersShortenSwaps(t *testing.T) {
	run := func(buffers int) float64 {
		cfg := DefaultConfig()
		cfg.SwapBuffers = buffers
		cfg.WarpsOverride = 8
		smx, ctrl, _, _, _ := buildDRS(t, cfg, 2000)
		if _, err := smx.Run(); err != nil {
			t.Fatal(err)
		}
		return ctrl.Stats().MeanSwapCycles()
	}
	six := run(6)
	eighteen := run(18)
	if six <= eighteen {
		t.Errorf("6 buffers (%v cycles) should be slower than 18 (%v)", six, eighteen)
	}
}

func TestIdealModeCompletes(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Ideal = true
	smx, ctrl, _, pool, _ := buildDRS(t, cfg, 2000)
	if _, err := smx.Run(); err != nil {
		t.Fatal(err)
	}
	if pool.Remaining() != 0 {
		t.Errorf("pool not drained")
	}
	if ctrl.Stats().SwapsCompleted != 0 {
		t.Errorf("ideal mode should not use the swap engine")
	}
	if ctrl.Stats().IdealShuffles == 0 {
		t.Errorf("ideal mode never shuffled")
	}
}

func TestBackupRowConfigsComplete(t *testing.T) {
	for _, rows := range []int{1, 2, 4, 8} {
		cfg := DefaultConfig()
		cfg.BackupRows = rows
		cfg.ExtraBank = true
		smx, ctrl, _, pool, _ := buildDRS(t, cfg, 1200)
		if _, err := smx.Run(); err != nil {
			t.Fatalf("backup=%d: %v", rows, err)
		}
		if pool.Remaining() != 0 {
			t.Errorf("backup=%d: pool not drained", rows)
		}
		if err := ctrl.CheckInvariants(); err != nil {
			t.Errorf("backup=%d: %v", rows, err)
		}
	}
}

func TestStatsMeanSwapCycles(t *testing.T) {
	var s Stats
	if s.MeanSwapCycles() != 0 {
		t.Errorf("empty mean should be 0")
	}
	s.SwapsCompleted = 4
	s.SwapCycleSum = 100
	if s.MeanSwapCycles() != 25 {
		t.Errorf("mean = %v", s.MeanSwapCycles())
	}
}
