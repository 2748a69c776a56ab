package dmk

import (
	"repro/internal/geom"
	"repro/internal/kernels"
	"repro/internal/progcheck"
	"repro/internal/reorder"
	"repro/internal/simt"
)

// Policy adapts the DMK baseline to the reorder.Policy interface: the
// non-speculative while-while kernel (micro-kernels respawn mid-loop,
// which speculative postponing would fight) wrapped by the divergence
// hook + spawner. Spawn costs are charged in-engine (SI instructions,
// spawn-memory conflicts), so the generic CostCycles stays zero.
type Policy struct {
	Cfg Config
}

// NewPolicy wraps a DMK configuration as a policy.
func NewPolicy(cfg Config) *Policy { return &Policy{Cfg: cfg} }

// Name implements reorder.Policy.
func (p *Policy) Name() string { return "dmk" }

// Summary implements reorder.Policy.
func (p *Policy) Summary() string {
	return "dynamic micro-kernels: divergent threads dump to spawn memory, spawner re-forms full warps"
}

// Validate implements reorder.Policy. The constructor defaults every
// non-positive parameter, so any configuration is runnable; reject
// only negatives, which signal caller confusion rather than "use the
// default".
func (p *Policy) Validate() error {
	return nonNegative(map[string]int{
		"SpawnBanks":     p.Cfg.SpawnBanks,
		"RegsPerThread":  p.Cfg.RegsPerThread,
		"MinOccupancy":   p.Cfg.MinOccupancy,
		"FlushThreshold": p.Cfg.FlushThreshold,
		"MinSpawn":       p.Cfg.MinSpawn,
	})
}

// Warps implements reorder.Policy: 0 accepts the harness warp count.
func (p *Policy) Warps() int { return 0 }

// Caps implements reorder.Policy.
func (p *Policy) Caps() progcheck.Caps { return progcheck.Caps{} }

// NewSMX implements reorder.Policy.
func (p *Policy) NewSMX(env reorder.Env) (reorder.Instance, error) {
	// DMK runs the plain non-speculative kernel regardless of the
	// harness's Aila options: the MICRO 2010 baseline respawns
	// micro-kernels at divergence, which replaces the speculative
	// postponing heuristic rather than composing with it.
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

// instance is one SMX's DMK attachment.
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
	return reorder.Stats{Reorders: st.Respawns, RaysMoved: st.ThreadsMoved}
}

// nonNegative rejects the first negative parameter by name, in sorted
// key order so the error is deterministic.
func nonNegative(fields map[string]int) error {
	var bad string
	//drslint:allow map-range -- lowest-name tie-break makes the pick order-independent
	for name, v := range fields {
		if v < 0 && (bad == "" || name < bad) {
			bad = name
		}
	}
	if bad != "" {
		return &ConfigError{Field: bad, Value: fields[bad]}
	}
	return nil
}

// ConfigError reports a negative DMK parameter.
type ConfigError struct {
	Field string
	Value int
}

func (e *ConfigError) Error() string {
	return "dmk: " + e.Field + " must not be negative"
}
