package harness

import (
	"reflect"
	"testing"

	"repro/internal/scene"
)

// The quickstart configuration (conference room, incoherent secondary
// bounce, Aila then DRS) must produce bit-identical GPUResult.Stats —
// device cycles, L1Tex miss rate, register file counters — on every
// run. This is the go-test form of the ISSUE's determinism acceptance
// criterion; cmd/drsbench -repeat covers the full experiment matrix.
func TestQuickstartConfigurationBitReproducible(t *testing.T) {
	data, traces, _ := testWorkload(t, scene.ConferenceRoom, 1500)
	rays := traces.Bounce(3).Rays
	opt := smallOptions()
	opt.Simt.NumSMX = 5

	for _, arch := range []Arch{ArchAila, ArchDRS} {
		var ref *Result
		for i := 0; i < 3; i++ {
			res, err := Run(arch, rays, data, opt)
			if err != nil {
				t.Fatalf("%v run %d: %v", arch, i, err)
			}
			if ref == nil {
				ref = res
				continue
			}
			if res.GPU.Stats != ref.GPU.Stats {
				t.Fatalf("%v run %d: device stats diverged: cycles %d vs %d, mem txns %d vs %d",
					arch, i, res.GPU.Stats.Cycles, ref.GPU.Stats.Cycles,
					res.GPU.Stats.MemTransactions, ref.GPU.Stats.MemTransactions)
			}
			if res.GPU.L1TexMissRate != ref.GPU.L1TexMissRate {
				t.Fatalf("%v run %d: L1Tex miss rate diverged: %v vs %v",
					arch, i, res.GPU.L1TexMissRate, ref.GPU.L1TexMissRate)
			}
			if res.GPU.RFStats != ref.GPU.RFStats {
				t.Fatalf("%v run %d: RF counters diverged: %+v vs %+v",
					arch, i, res.GPU.RFStats, ref.GPU.RFStats)
			}
			for s := range res.GPU.PerSMX {
				if res.GPU.PerSMX[s] != ref.GPU.PerSMX[s] {
					t.Fatalf("%v run %d: SMX %d stats diverged", arch, i, s)
				}
			}
		}
	}
}

// The harness's determinism assertion mode must pass on the
// epoch-barrier engine for all four architectures.
func TestCheckDeterminismPassesOnEpochEngine(t *testing.T) {
	data, traces, _ := testWorkload(t, scene.CrytekSponza, 1200)
	rays := traces.Bounce(2).Rays
	if len(rays) > 2000 {
		rays = rays[:2000]
	}
	opt := smallOptions()
	opt.Simt.NumSMX = 3
	opt.CheckDeterminism = true
	for _, arch := range []Arch{ArchAila, ArchDRS, ArchDMK, ArchTBC} {
		if _, err := Run(arch, rays, data, opt); err != nil {
			t.Errorf("%v: determinism check failed: %v", arch, err)
		}
	}
}

// A simulated number must not depend on the epoch length, a simulator
// artifact. On one SMX the ordered L2 drain sees only that SMX's
// requests in issue order, so every registered policy must produce the
// same device results at any epoch length, including one clamped to
// the minimum L2-bound latency.
//
// With two or more SMXs this does not hold yet: the epoch length
// decides how the SMXs' L2 requests interleave in the drain, and with
// it the L2 hit/miss pattern, so several policies' cycle counts move by
// up to a few percent between epoch lengths (ser the most). That is a
// known open problem, not pinned here.
func TestEpochLengthInvariantOnOneSMX(t *testing.T) {
	data, traces, _ := testWorkload(t, scene.ConferenceRoom, 1500)
	rays := traces.Bounce(2).Rays
	for _, name := range Policies().Names() {
		t.Run(name, func(t *testing.T) {
			var ref *Result
			for _, epoch := range []int{1, 7, 64, 1 << 20} {
				opt := smallOptions()
				opt.Simt.NumSMX = 1
				opt.Simt.EpochCycles = epoch
				res, err := RunNamed(name, rays, data, opt)
				if err != nil {
					t.Fatalf("epoch %d: %v", epoch, err)
				}
				if ref == nil {
					ref = res
					continue
				}
				switch {
				case res.GPU.Stats != ref.GPU.Stats:
					t.Errorf("epoch %d: device stats diverged from epoch 1: cycles %d vs %d",
						epoch, res.GPU.Stats.Cycles, ref.GPU.Stats.Cycles)
				case !reflect.DeepEqual(res.GPU.PerSMX, ref.GPU.PerSMX):
					t.Errorf("epoch %d: per-SMX stats diverged from epoch 1", epoch)
				case res.GPU.L1TexMissRate != ref.GPU.L1TexMissRate:
					t.Errorf("epoch %d: L1Tex miss rate %v, epoch 1 %v",
						epoch, res.GPU.L1TexMissRate, ref.GPU.L1TexMissRate)
				case res.GPU.RFStats != ref.GPU.RFStats:
					t.Errorf("epoch %d: register file counters diverged from epoch 1", epoch)
				}
			}
			if ref.GPU.Stats.MemTransactions == 0 {
				t.Fatal("workload performed no memory transactions; the test is vacuous")
			}
		})
	}
}
