package simt

import (
	"testing"

	"repro/internal/memsys"
)

// memHeavyFactory builds a looping kernel whose slots sweep a footprint
// much larger than the L2, so every SMX streams misses and evictions
// through the shared cache — the access pattern that exposes any
// cross-SMX nondeterminism in the shared L2.
func memHeavyFactory(iters int) Factory {
	return func(id int) (SMXProgram, error) {
		k := &testKernel{
			blocks: []BlockInfo{
				{Name: "loop", Insts: 2, MemInsts: 1, Reconv: 1},
				{Name: "exit", Insts: 1},
			},
			step: func(slot int32, block int, res *StepResult) {
				if block != 0 {
					res.Next = BlockExit
					return
				}
				// Distinct per-slot stride so warps diverge in time, with a
				// footprint of iters*1MB per SMX (L2 is 1.5MB total).
				res.NMem = 1
				res.Mem[0] = MemAccess{
					Addr:  uint64(id)<<30 | uint64(slot)*4096,
					Bytes: 4,
					Space: memsys.Tex,
				}
				res.Next = 0
			},
		}
		// Count loop trips per slot via a side table owned by the kernel.
		trips := make(map[int32]int)
		inner := k.step
		k.step = func(slot int32, block int, res *StepResult) {
			inner(slot, block, res)
			if block == 0 {
				trips[slot]++
				res.Mem[0].Addr += uint64(trips[slot]) * 128 * 17
				if trips[slot] >= iters {
					res.Next = 1
				}
			}
		}
		return SMXProgram{Kernel: k}, nil
	}
}

// The epoch-barrier engine must produce bit-identical device results on
// every run, with many SMXs hammering the shared L2.
func TestEpochEngineDeterministic(t *testing.T) {
	cfg := smallConfig(4)
	cfg.NumSMX = 6
	var ref *GPUResult
	for i := 0; i < 4; i++ {
		res, err := RunGPU(cfg, memHeavyFactory(40))
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = res
			continue
		}
		if res.Stats != ref.Stats {
			t.Fatalf("run %d device stats diverged: cycles %d vs %d, txns %d vs %d",
				i, res.Stats.Cycles, ref.Stats.Cycles,
				res.Stats.MemTransactions, ref.Stats.MemTransactions)
		}
		for s := range res.PerSMX {
			if res.PerSMX[s] != ref.PerSMX[s] {
				t.Fatalf("run %d SMX %d stats diverged: cycles %d vs %d",
					i, s, res.PerSMX[s].Cycles, ref.PerSMX[s].Cycles)
			}
		}
		if res.L1TexMissRate != ref.L1TexMissRate {
			t.Fatalf("run %d L1Tex miss rate diverged: %v vs %v", i, res.L1TexMissRate, ref.L1TexMissRate)
		}
	}
	if ref.Stats.MemTransactions == 0 {
		t.Fatal("workload performed no memory transactions; the test is vacuous")
	}
}

// With a single SMX the ordered drain replays requests in exactly the
// order the immediate memsys.L2 would have served them, and the
// deferred latency formula matches the immediate one — so RunGPU must
// agree bit for bit with a standalone, free-running SMX.Run over the
// immediate L2.
func TestEpochEngineMatchesFreeOnSingleSMX(t *testing.T) {
	cfg := smallConfig(4)
	cfg.NumSMX = 1

	epoch, err := RunGPU(cfg, memHeavyFactory(30))
	if err != nil {
		t.Fatal(err)
	}
	prog, err := memHeavyFactory(30)(0)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSMX(0, cfg, prog.Kernel, prog.Hooks, memsys.NewL2(cfg.Mem))
	if err != nil {
		t.Fatal(err)
	}
	s.LaunchAll(0)
	free, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if epoch.Stats != free {
		t.Fatalf("single-SMX epoch engine disagrees with the immediate L2: epoch cycles %d, free cycles %d (instrs %d vs %d)",
			epoch.Stats.Cycles, free.Cycles, epoch.Stats.WarpInstrs, free.WarpInstrs)
	}
	if free.MemTransactions == 0 {
		t.Fatal("workload performed no memory transactions; the test is vacuous")
	}
}

// EpochLen clamps to the minimum L2-bound latency so deferred
// resolution can never be late, and respects explicit settings below
// the clamp.
func TestEpochLenClamp(t *testing.T) {
	cfg := DefaultConfig()
	if got, want := cfg.EpochLen(), int64(DefaultEpochCycles); got != want {
		t.Errorf("default EpochLen = %d, want %d", got, want)
	}
	cfg.EpochCycles = 16
	if got := cfg.EpochLen(); got != 16 {
		t.Errorf("explicit EpochLen = %d, want 16", got)
	}
	cfg.Mem.L1HitLat, cfg.Mem.L2HitLat = 3, 4
	cfg.EpochCycles = 100
	if got := cfg.EpochLen(); got != 7 {
		t.Errorf("clamped EpochLen = %d, want 7 (L1HitLat+L2HitLat)", got)
	}
}

// Validate rejects a negative epoch length.
func TestEngineConfigValidation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.EpochCycles = -1
	if err := cfg.Validate(); err == nil {
		t.Error("negative EpochCycles validated")
	}
}
