package core

import (
	"repro/internal/geom"
	"repro/internal/kernels"
	"repro/internal/progcheck"
	"repro/internal/reorder"
	"repro/internal/simt"
)

// Policy adapts the DRS architecture to the reorder.Policy interface:
// Kernel 1 (the while-if kernel) gated by the per-SMX Control, with
// the warp count derived from the row configuration. Shuffle costs are
// charged in-engine (gate stalls, swap-buffer serialization, register
// file contention), so the generic CostCycles stays zero.
type Policy struct {
	Cfg Config
}

// NewPolicy wraps a DRS configuration as a policy.
func NewPolicy(cfg Config) *Policy { return &Policy{Cfg: cfg} }

// Name implements reorder.Policy.
func (p *Policy) Name() string { return "drs" }

// Summary implements reorder.Policy.
func (p *Policy) Summary() string {
	return "dynamic ray shuffling: row renaming + swap engines keep warps state-uniform (the paper)"
}

// Validate implements reorder.Policy.
func (p *Policy) Validate() error { return p.Cfg.Validate() }

// Warps implements reorder.Policy: the DRS warp count comes from its
// row configuration, not the harness baseline.
func (p *Policy) Warps() int { return p.Cfg.Warps() }

// Caps implements reorder.Policy: only the DRS services gated blocks
// and TagCtrl instructions (its rdctrl gate and control co-processor).
func (p *Policy) Caps() progcheck.Caps { return progcheck.Caps{Gate: true, CtrlTag: true} }

// NewSMX implements reorder.Policy.
func (p *Policy) NewSMX(env Env) (reorder.Instance, error) {
	slots := (p.Cfg.Rows() - 2) * env.Cfg.WarpSize
	k := kernels.NewWhileIfConfigured(env.Data, env.Pool, slots, env.WhileIf)
	if env.Verify != nil {
		if err := env.Verify(k); err != nil {
			return nil, err
		}
	}
	ctrl, err := NewControl(p.Cfg, k)
	if err != nil {
		return nil, err
	}
	if env.Collector != nil {
		ctrl.RegisterMetrics(env.Collector, env.MetricsPrefix)
	}
	return &instance{k: k, ctrl: ctrl}, nil
}

// Env aliases reorder.Env so the method set reads naturally here.
type Env = reorder.Env

// instance is one SMX's DRS attachment.
type instance struct {
	k    *kernels.WhileIf
	ctrl *Control
}

func (i *instance) Program() simt.SMXProgram {
	return simt.SMXProgram{Kernel: i.k, Hooks: i.ctrl.Hooks(), Launch: i.ctrl.Launch}
}

func (i *instance) Hits() []geom.Hit { return i.k.Hits }

// ReorderStats implements reorder.StatsReporter: swaps completed are
// the reordering events; in Ideal mode the instantaneous shuffles are.
func (i *instance) ReorderStats() reorder.Stats {
	st := i.ctrl.Stats()
	return reorder.Stats{
		Reorders:  st.SwapsCompleted + st.IdealShuffles,
		RaysMoved: st.RaysMoved,
	}
}
