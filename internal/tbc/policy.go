package tbc

import (
	"fmt"

	"repro/internal/geom"
	"repro/internal/kernels"
	"repro/internal/progcheck"
	"repro/internal/reorder"
	"repro/internal/simt"
)

// Policy adapts the TBC baseline to the reorder.Policy interface: the
// non-speculative while-while kernel with block-wide barrier
// compaction. Synchronization costs are charged in-engine (barrier
// stalls), so the generic CostCycles stays zero.
type Policy struct {
	Cfg Config
}

// NewPolicy wraps a TBC configuration as a policy.
func NewPolicy(cfg Config) *Policy { return &Policy{Cfg: cfg} }

// Name implements reorder.Policy.
func (p *Policy) Name() string { return "tbc" }

// Summary implements reorder.Policy.
func (p *Policy) Summary() string {
	return "thread block compaction: block-wide barriers at divergence, lane-aligned warp re-formation"
}

// Validate implements reorder.Policy: the constructor defaults a
// non-positive block size, so only negatives are rejected.
func (p *Policy) Validate() error {
	if p.Cfg.WarpsPerBlock < 0 {
		return fmt.Errorf("tbc: WarpsPerBlock must not be negative")
	}
	return nil
}

// Warps implements reorder.Policy: 0 accepts the harness warp count.
func (p *Policy) Warps() int { return 0 }

// Caps implements reorder.Policy.
func (p *Policy) Caps() progcheck.Caps { return progcheck.Caps{} }

// NewSMX implements reorder.Policy.
func (p *Policy) NewSMX(env reorder.Env) (reorder.Instance, error) {
	// Like DMK, TBC wraps the plain non-speculative kernel: block-wide
	// synchronization replaces the speculative postponing heuristic.
	acfg := kernels.AilaConfig{SkipVerify: env.SkipProgCheck}
	k := kernels.NewAila(env.Data, env.Pool, env.Cfg.MaxWarpsPerSMX*env.Cfg.WarpSize, acfg)
	if env.Verify != nil {
		if err := env.Verify(k); err != nil {
			return nil, err
		}
	}
	w := New(p.Cfg, k, env.Cfg.MaxWarpsPerSMX, env.Cfg.WarpSize)
	if env.Collector != nil {
		w.RegisterMetrics(env.Collector.Registry, env.MetricsPrefix)
	}
	return &instance{k: k, w: w}, nil
}

// instance is one SMX's TBC attachment.
type instance struct {
	k *kernels.Aila
	w *Wrapper
}

func (i *instance) Program() simt.SMXProgram {
	return simt.SMXProgram{Kernel: i.k, Hooks: i.w.Hooks()}
}

func (i *instance) Hits() []geom.Hit { return i.k.Hits }

// ReorderStats implements reorder.StatsReporter.
func (i *instance) ReorderStats() reorder.Stats {
	st := i.w.Stats()
	// Lane-aligned compaction moves at most a warp per warp formed; the
	// formed-warp count is the closest thread-movement analogue TBC
	// tracks (threads stay in their SIMD lane, so "moved" means
	// re-grouped into a different warp).
	return reorder.Stats{Reorders: st.Compactions, RaysMoved: st.WarpsFormed}
}
