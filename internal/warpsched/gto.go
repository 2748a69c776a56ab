package warpsched

import "repro/internal/simt"

// GTO is greedy-then-oldest, the engine's historical default and the
// paper's Table 1 configuration, re-homed behind the registry: keep
// issuing from the same warp; on a stall fall back to the issuable
// warp that has waited longest (lowest id on ties). The canonical scan
// lives in the engine (SchedView.PickGTO), so the registry policy and
// a nil Config.SchedFactory run the same code and are byte-identical
// by construction.
type GTO struct{}

// NewGTO returns the greedy-then-oldest scheduler.
func NewGTO() GTO { return GTO{} }

// Name implements Scheduler.
func (GTO) Name() string { return "gto" }

// Summary implements Scheduler.
func (GTO) Summary() string {
	return "greedy-then-oldest (Table 1 default): stay on the issuing warp, else oldest-first"
}

// Validate implements Scheduler; GTO has no parameters.
func (GTO) Validate() error { return nil }

// Factory implements Scheduler.
func (GTO) Factory() simt.SchedFactory {
	return func(v simt.SchedView) simt.SchedProgram {
		return simt.SchedProgram{Pick: v.PickGTO}
	}
}
