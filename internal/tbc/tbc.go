// Package tbc implements the Thread Block Compaction baseline (Fung &
// Aamodt, HPCA 2011) the paper compares against in §4.4. Warps of a
// thread block synchronize at divergent branches; their threads are
// then compacted into new warps per branch target under the per-SIMD-
// lane register file constraint (a thread can only move to its own lane
// of another warp). A block-wide reconvergence discipline serializes
// the targets. The two costs the paper identifies — synchronization
// latency and imperfect compaction under the lane constraint — fall out
// of this model directly.
package tbc

import (
	"sort"

	"repro/internal/kernels"
	"repro/internal/metrics"
	"repro/internal/simt"
)

// Config holds the TBC parameters.
type Config struct {
	// WarpsPerBlock is the thread block size in warps (6 in the paper's
	// evaluation, matching the configuration of the TBC paper).
	WarpsPerBlock int
}

// DefaultConfig matches the paper's TBC evaluation: 6 warps per block.
func DefaultConfig() Config { return Config{WarpsPerBlock: 6} }

// Stats counts TBC activity.
type Stats struct {
	Compactions int64 // block-wide compaction events
	WarpsFormed int64 // compacted warps launched
	// Syncs counts warps arriving at compaction barriers.
	Syncs int64
}

// tblock is the runtime state of one thread block.
type tblock struct {
	warps []int // member warp ids
	// running is the set of member warps currently executing.
	running map[int]bool
	// parked maps parked warp id -> the cycle it parked (for barrier
	// stall accounting).
	parked map[int]int64
	// pending holds deposited threads per branch target, per lane.
	pending map[int][][]int32
}

// Wrapper attaches TBC behaviour to the baseline kernel.
type Wrapper struct {
	cfg       Config
	k         *kernels.Aila
	warpSize  int
	blocks    []*tblock
	warpBlock []int
	stats     Stats
}

// New creates the per-SMX TBC wrapper for numWarps resident warps.
func New(cfg Config, k *kernels.Aila, numWarps, warpSize int) *Wrapper {
	if cfg.WarpsPerBlock <= 0 {
		cfg.WarpsPerBlock = 6
	}
	w := &Wrapper{
		cfg:       cfg,
		k:         k,
		warpSize:  warpSize,
		warpBlock: make([]int, numWarps),
	}
	for start := 0; start < numWarps; start += cfg.WarpsPerBlock {
		end := start + cfg.WarpsPerBlock
		if end > numWarps {
			end = numWarps
		}
		tb := &tblock{
			running: make(map[int]bool),
			parked:  make(map[int]int64),
			pending: make(map[int][][]int32),
		}
		for wi := start; wi < end; wi++ {
			tb.warps = append(tb.warps, wi)
			tb.running[wi] = true
			w.warpBlock[wi] = len(w.blocks)
		}
		w.blocks = append(w.blocks, tb)
	}
	return w
}

// Hooks returns the engine hooks implementing TBC. Warps park at the
// block-wide barrier when they diverge or fall under 3/4 occupancy;
// full uniform warps keep running until then (their in-flight work
// delays the block's compaction — the synchronization latency the
// paper identifies as TBC's limiting cost).
func (w *Wrapper) Hooks() simt.Hooks {
	return simt.Hooks{
		OnBlockEnd: w.onBlockEnd,
		OnWarpDone: w.onWarpDone,
	}
}

// Stats returns a snapshot of the wrapper's counters.
func (w *Wrapper) Stats() Stats { return w.stats }

// RegisterMetrics registers the wrapper's counters under prefix
// ("smx3/tbc") in the unified registry.
func (w *Wrapper) RegisterMetrics(reg *metrics.Registry, prefix string) {
	reg.RegisterStruct(prefix, &w.stats)
}

// onBlockEnd parks the warp at the block barrier, depositing its
// threads, and compacts once every running member has arrived. Full
// warps that branched uniformly continue without synchronizing.
func (w *Wrapper) onBlockEnd(s *simt.SMX, warp, block int, lanes []int, targets []int) bool {
	uniform := true
	for _, t := range targets[1:] {
		if t != targets[0] {
			uniform = false
			break
		}
	}
	if uniform && len(lanes) >= w.warpSize*3/4 {
		return false // keep running at full occupancy
	}
	tb := w.blocks[w.warpBlock[warp]]
	wp := s.Warp(warp)
	slots := wp.Slots()
	for i, l := range lanes {
		t := targets[i]
		perLane := tb.pending[t]
		if perLane == nil {
			perLane = make([][]int32, w.warpSize)
			tb.pending[t] = perLane
		}
		perLane[l] = append(perLane[l], slots[l])
	}
	delete(tb.running, warp)
	tb.parked[warp] = s.Cycle()
	wp.Park()
	w.stats.Syncs++
	// Compact once half the block has synchronized (enough arrivals to
	// aggregate threads), or when nothing is left running.
	if len(tb.running) == 0 || len(tb.parked)*3 >= len(tb.warps) {
		w.compact(s, tb)
	}
	s.RecountLive()
	return true
}

// onWarpDone re-parks retired warps so compaction can hand them the
// block's remaining pending threads; a block whose last running warp
// retires can then compact.
func (w *Wrapper) onWarpDone(s *simt.SMX, warp int) {
	tb := w.blocks[w.warpBlock[warp]]
	if !tb.running[warp] {
		return
	}
	delete(tb.running, warp)
	tb.parked[warp] = s.Cycle()
	if len(tb.running) == 0 {
		w.compact(s, tb)
		s.RecountLive()
	}
}

// compact forms lane-aligned warps for the pending targets (largest
// first) and resumes parked warps with them. Targets that do not fit in
// the available warps stay pending until the next barrier.
func (w *Wrapper) compact(s *simt.SMX, tb *tblock) {
	if len(tb.parked) == 0 {
		return
	}
	// Deterministic warp pool, ordered by id.
	ids := make([]int, 0, len(tb.parked))
	//drslint:allow map-range -- collected ids are sorted before use
	for wid := range tb.parked {
		ids = append(ids, wid)
	}
	sort.Ints(ids)

	// Targets ordered by pending thread count, descending.
	type tcount struct {
		target int
		n      int
	}
	var order []tcount
	//drslint:allow map-range -- counts are order-independent and the result is sorted
	for t, perLane := range tb.pending {
		n := 0
		for _, col := range perLane {
			n += len(col)
		}
		if n > 0 {
			order = append(order, tcount{t, n})
		}
	}
	sort.Slice(order, func(i, j int) bool {
		if order[i].n != order[j].n {
			return order[i].n > order[j].n
		}
		return order[i].target < order[j].target
	})

	now := s.Cycle()
	next := 0 // next warp id index to hand out
	drain := len(tb.running) == 0
	for _, tc := range order {
		if next >= len(ids) {
			break
		}
		// Before the drain phase, only spend warps on targets with a
		// full warp's worth of threads; thin targets keep aggregating.
		if !drain && tc.n < w.warpSize {
			continue
		}
		perLane := tb.pending[tc.target]
		// Warps needed = deepest lane (the lane-alignment constraint of
		// a per-SIMD-lane register file).
		need := 0
		for _, col := range perLane {
			if len(col) > need {
				need = len(col)
			}
		}
		formed := need
		if formed > len(ids)-next {
			formed = len(ids) - next
		}
		for i := 0; i < formed; i++ {
			slots := make([]int32, w.warpSize)
			for l := 0; l < w.warpSize; l++ {
				col := perLane[l]
				if i < len(col) {
					slots[l] = col[len(col)-1-i]
				} else {
					slots[l] = -1
				}
			}
			wid := ids[next]
			next++
			s.AddBarrierStall(now - tb.parked[wid])
			s.Warp(wid).Resume(slots, tc.target)
			delete(tb.parked, wid)
			tb.running[wid] = true
			w.stats.WarpsFormed++
		}
		// Remove the consumed threads (the top `formed` of each lane).
		empty := true
		for l := range perLane {
			col := perLane[l]
			take := formed
			if take > len(col) {
				take = len(col)
			}
			perLane[l] = col[:len(col)-take]
			if len(perLane[l]) > 0 {
				empty = false
			}
		}
		if empty {
			delete(tb.pending, tc.target)
		}
	}
	w.stats.Compactions++
	if len(tb.running) > 0 {
		return
	}
	// Nothing was formed and nothing runs: the block is out of work;
	// retire the remaining parked warps.
	if len(tb.pending) == 0 {
		// Iterate the pre-sorted id snapshot, not the map: warps consumed
		// by the formation phase above are gone from parked already.
		for _, wid := range ids {
			if _, still := tb.parked[wid]; !still {
				continue
			}
			empty := make([]int32, w.warpSize)
			for i := range empty {
				empty[i] = -1
			}
			s.Warp(wid).Resume(empty, 0)
			delete(tb.parked, wid)
		}
	}
}
