package warpsched

import "repro/internal/simt"

// LRR is loose round-robin: rotate through the scheduler's warps
// starting after the one it issued from last, taking the first
// issuable one. Warps progress in lockstep-ish fashion, which spreads
// memory accesses evenly but gives up GTO's latency-hiding greediness
// — the classic ablation baseline. The canonical scan lives in the
// engine (SchedView.PickLRR).
type LRR struct{}

// NewLRR returns the loose round-robin scheduler.
func NewLRR() LRR { return LRR{} }

// Name implements Scheduler.
func (LRR) Name() string { return "lrr" }

// Summary implements Scheduler.
func (LRR) Summary() string {
	return "loose round-robin: rotate past the last issuing warp, first issuable wins"
}

// Validate implements Scheduler; LRR has no parameters.
func (LRR) Validate() error { return nil }

// Factory implements Scheduler.
func (LRR) Factory() simt.SchedFactory {
	return func(v simt.SchedView) simt.SchedProgram {
		return simt.SchedProgram{Pick: v.PickLRR}
	}
}
