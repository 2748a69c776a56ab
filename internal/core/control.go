package core

import (
	"fmt"

	"repro/internal/kernels"
	"repro/internal/metrics"
	"repro/internal/simt"
)

// Stats counts the DRS control's activity.
type Stats struct {
	// Remaps counts warp-to-row rebinds performed at rdctrl.
	Remaps int64
	// SwapsStarted / SwapsCompleted count ray moves through the swap
	// buffers; SwapCycleSum accumulates their durations so the mean can
	// be compared with the paper's per-configuration averages (§4.3).
	SwapsStarted   int64
	SwapsCompleted int64
	SwapCycleSum   int64
	// RaysMoved counts individual rays relocated by the swap engine.
	RaysMoved int64
	// IdealShuffles counts instantaneous reorganizations in Ideal mode.
	IdealShuffles int64
}

// MeanSwapCycles returns the average duration of a completed ray move.
func (s Stats) MeanSwapCycles() float64 {
	if s.SwapsCompleted == 0 {
		return 0
	}
	return float64(s.SwapCycleSum) / float64(s.SwapsCompleted)
}

// transfer is one register variable move in flight through a swap
// buffer (read cycle + write cycle).
type transfer struct {
	doneAt int64
}

// move is one batched ray relocation between two rows. Each swap
// buffer holds one variable for up to warpSize-1 lanes (§4.5's
// 6 x (warpSize-1) x 32 bit sizing), so one operation carries up to 31
// rays: 17 row reads and 17 row writes move every selected ray's
// registers — twice that when the operation exchanges rays in both
// directions.
type move struct {
	srcRow, dstRow     int
	srcCells, dstCells []int
	exchange           bool
	started            int64
	varsIssued         int
	varsTotal          int
	inflight           []transfer
}

// role is one of the three shuffle engines (§3.2.4): fetch-state
// collecting, leaf-state collecting, inner-state ejecting.
type role struct {
	name    string
	buffers int
	op      *move
	// want is the ray state this role collects (StateFetch/StateLeaf)
	// or ejects (StateInner).
	want kernels.State
	// noMoveVersion caches a fruitless findMove: while the control's
	// mutation version is unchanged, re-planning would rescan every row
	// and reach the same nil. ^0 = no cached outcome.
	noMoveVersion uint64
	// opStore and the cell buffers are reused across this role's
	// operations (one op in flight per role at a time) so steady-state
	// shuffle planning does not allocate.
	opStore move
	srcBuf  []int
	dstBuf  []int
}

// Control is the per-SMX DRS control logic.
type Control struct {
	cfg    Config
	kernel *kernels.WhileIf
	smx    *simt.SMX

	// rows holds the ray state table organization: rows[r][c] is the
	// kernel slot in row r, cell c (-1 = empty cell).
	rows [][]int32
	// warpRow / rowWarp implement the renaming table.
	warpRow []int
	rowWarp []int
	// rowBusy counts in-flight moves touching the row; busy rows cannot
	// be bound to warps or used by new moves.
	rowBusy []int

	// Incremental ray state table bookkeeping: slotRow maps each kernel
	// slot to its current row, rowCounts[r][s] counts rays of state s
	// in row r, and workSlots counts all non-empty slots. The kernel's
	// state-change listener keeps these current so the gate and the
	// swap planner run in O(1)/O(rows) instead of scanning every cell.
	slotRow   []int32
	rowCounts [][4]int
	workSlots int
	// rowMixed / numMixed track which rows currently hold more than one
	// distinct non-empty state, so the swap planner can skip work when
	// every row is uniform.
	rowMixed []bool
	numMixed int

	// version counts every mutation of the state the gate and the swap
	// planner read: ray state transitions (onStateChange), row content
	// and busy changes (planMove/completeMove/idealShuffle) and binding
	// changes (bind/unbind). Pool().Remaining() is covered too: the
	// kernel fires the state listener on every pool fetch. A warp whose
	// gate stalled at version v must stall again at version v — the gate
	// records (warp, version) on stall and skips the O(rows) rescan
	// until something actually changes. Byte-identical by construction.
	version uint64
	// stallVersion[w] is the version at which warp w's gate last
	// returned a stall (^0 = never).
	stallVersion []uint64

	// traceOps, when set, receives a one-line description of every
	// planned swap (debugging/inspection aid).
	traceOps func(string)

	roles [3]role

	stats Stats

	scratch []int32
}

// NewControl builds the DRS control for one SMX, organizing the
// kernel's slots into rows. The kernel must have Rows()*warpSize slots.
func NewControl(cfg Config, kernel *kernels.WhileIf) (*Control, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	ws := cfg.warpSize()
	nRows := cfg.Rows()
	nWarps := cfg.Warps()
	// The two reorganization rows are empty; all other rows hold live
	// slots. The kernel therefore needs (nRows-2)*ws slots.
	need := (nRows - 2) * ws
	if kernel.NumSlots() != need {
		return nil, fmt.Errorf("core: kernel has %d slots, config needs %d", kernel.NumSlots(), need)
	}
	c := &Control{
		cfg:     cfg,
		kernel:  kernel,
		rows:    make([][]int32, nRows),
		warpRow: make([]int, nWarps),
		rowWarp: make([]int, nRows),
		rowBusy: make([]int, nRows),
		scratch: make([]int32, ws),
	}
	c.stallVersion = make([]uint64, nWarps)
	for i := range c.stallVersion {
		c.stallVersion[i] = ^uint64(0)
	}
	c.slotRow = make([]int32, kernel.NumSlots())
	c.rowCounts = make([][4]int, nRows)
	slot := int32(0)
	for r := 0; r < nRows; r++ {
		c.rows[r] = make([]int32, ws)
		for l := 0; l < ws; l++ {
			if r < nRows-2 {
				c.rows[r][l] = slot
				c.slotRow[slot] = int32(r)
				c.rowCounts[r][kernel.StateOf(slot)]++
				if kernel.StateOf(slot) != kernels.StateEmpty {
					c.workSlots++
				}
				slot++
			} else {
				c.rows[r][l] = -1
			}
		}
		c.rowWarp[r] = -1
	}
	c.rowMixed = make([]bool, nRows)
	kernel.Listener = c.onStateChange
	for w := 0; w < nWarps; w++ {
		c.warpRow[w] = w
		c.rowWarp[w] = w
	}
	bpr := cfg.buffersPerRole()
	c.roles = [3]role{
		{name: "fetch-collect", buffers: bpr, want: kernels.StateFetch, noMoveVersion: ^uint64(0)},
		{name: "leaf-collect", buffers: bpr, want: kernels.StateLeaf, noMoveVersion: ^uint64(0)},
		{name: "inner-eject", buffers: bpr, want: kernels.StateInner, noMoveVersion: ^uint64(0)},
	}
	return c, nil
}

// Hooks returns the engine hooks wiring this control to an SMX.
func (c *Control) Hooks() simt.Hooks {
	return simt.Hooks{
		Gate: c.gate,
		Tick: c.tick,
	}
}

// Launch starts the SMX's warps on their initial rows.
func (c *Control) Launch(s *simt.SMX) {
	c.smx = s
	for w := 0; w < len(c.warpRow); w++ {
		s.LaunchMapped(w, c.maskedSlots(c.warpRow[w]))
	}
}

// Stats returns a snapshot of the control's counters.
func (c *Control) Stats() Stats { return c.stats }

// RegisterMetrics registers the control's counters under prefix
// ("smx3/drs") in the unified registry, and its swap activity as an
// epoch time-series column so shuffle traffic is visible per epoch.
func (c *Control) RegisterMetrics(col *metrics.Collector, prefix string) {
	col.Registry.RegisterStruct(prefix, &c.stats)
	col.Series.Column(prefix+"/swaps_started", func() int64 { return c.stats.SwapsStarted })
}

// Config returns the control's configuration.
func (c *Control) Config() Config { return c.cfg }

// maskedSlots returns the row's slots with empty-state cells masked to
// -1, reusing the scratch buffer.
func (c *Control) maskedSlots(row int) []int32 {
	out := c.scratch
	for l, s := range c.rows[row] {
		if s >= 0 && c.kernel.StateOf(s) != kernels.StateEmpty {
			out[l] = s
		} else {
			out[l] = -1
		}
	}
	return out
}

// onStateChange mirrors kernel ray state transitions into the row
// counters (the DRS ray state table updates of §3.2.2).
func (c *Control) onStateChange(slot int32, old, new kernels.State) {
	c.version++
	r := c.slotRow[slot]
	c.rowCounts[r][old]--
	c.rowCounts[r][new]++
	if old == kernels.StateEmpty {
		c.workSlots++
	}
	if new == kernels.StateEmpty {
		c.workSlots--
	}
	c.refreshMixed(int(r))
}

// refreshMixed recomputes row r's mixed flag from its counters.
func (c *Control) refreshMixed(r int) {
	distinct := 0
	for s := kernels.StateFetch; s <= kernels.StateLeaf; s++ {
		if c.rowCounts[r][s] > 0 {
			distinct++
		}
	}
	mixed := distinct > 1
	if mixed != c.rowMixed[r] {
		c.rowMixed[r] = mixed
		if mixed {
			c.numMixed++
		} else {
			c.numMixed--
		}
	}
}

// rowState classifies a row from the counters: its uniform non-empty
// state (if any), whether it is uniform, and whether it holds work.
func (c *Control) rowState(row int) (st kernels.State, uniform, anyWork bool) {
	counts := &c.rowCounts[row]
	distinct := 0
	for s := kernels.StateFetch; s <= kernels.StateLeaf; s++ {
		if counts[s] > 0 {
			distinct++
			st = s
		}
	}
	return st, distinct <= 1, distinct > 0
}

// anyWorkLeft reports whether any slot still holds a non-empty state.
func (c *Control) anyWorkLeft() bool { return c.workSlots > 0 }

// unbind releases warp w's row.
func (c *Control) unbind(w int) {
	if r := c.warpRow[w]; r >= 0 {
		c.rowWarp[r] = -1
		c.warpRow[w] = -1
		c.version++
	}
}

// bind attaches warp w to row r.
func (c *Control) bind(w, r int) {
	c.warpRow[w] = r
	c.rowWarp[r] = w
	c.version++
}

// gate implements the rdctrl issue semantics (§3.2.3): map the warp to
// a row of rays in the same state, or suspend its issue until ray
// shuffling produces one.
func (c *Control) gate(s *simt.SMX, warp int, now int64) simt.GateResult {
	// Stall memoization: the gate's whole decision reads state covered by
	// the mutation version (row counts, bindings, busy flags, pool
	// occupancy), and its only lasting side effects on the stall path —
	// unbind, an ideal regroup — bump it. So an unchanged version since
	// this warp's last stall means the full evaluation would stall again;
	// skip the O(rows) rescan. (The version is monotonic: equality
	// implies literally nothing changed in between.)
	if c.stallVersion[warp] == c.version {
		return simt.GateStall
	}
	if row := c.warpRow[warp]; row >= 0 {
		st, uniform, anyWork := c.rowState(row)
		full := anyWork && c.rowCounts[row][st] >= c.bindThreshold()
		if uniform && anyWork && c.rowBusy[row] == 0 &&
			(full || !c.canGrow(row, st)) {
			s.Warp(warp).SetMapping(c.maskedSlots(row), kernels.WiRdctrl)
			return simt.GateProceed
		}
		// The row diverged, drained, or should first be refilled by the
		// collectors: release it for shuffling.
		c.unbind(warp)
	}
	if c.cfg.Ideal {
		c.idealShuffle()
	}
	// Find the fullest unbound, un-busy, uniform row with work. A
	// partially-filled row is only handed out once shuffling cannot
	// grow it further (its state has no rays left in other free rows) —
	// otherwise the warp's issue stays suspended while the collectors
	// fill the row, like the filled leaf-collecting row of Figure 6.
	best, bestLive := -1, 0
	var bestState kernels.State
	for r := range c.rows {
		if c.rowWarp[r] >= 0 || c.rowBusy[r] > 0 {
			continue
		}
		st, uniform, anyWork := c.rowState(r)
		if !uniform || !anyWork {
			continue
		}
		if live := c.rowCounts[r][st]; live > bestLive {
			best, bestLive, bestState = r, live, st
		}
	}
	if best >= 0 {
		if bestLive >= c.bindThreshold() || !c.canGrow(best, bestState) || c.idealFrozen() {
			c.bind(warp, best)
			c.stats.Remaps++
			s.Warp(warp).SetMapping(c.maskedSlots(best), kernels.WiRdctrl)
			return simt.GateProceed
		}
	}
	if !c.anyWorkLeft() && c.kernel.Pool().Remaining() == 0 {
		return simt.GateExit
	}
	c.stallVersion[warp] = c.version
	return simt.GateStall
}

// bindThreshold returns the minimum live-ray count for handing a
// growable uniform row to a warp: 3/4 of a row.
func (c *Control) bindThreshold() int { return c.cfg.warpSize() * 3 / 4 }

// idealFrozen reports whether refusing a growable row would stall the
// SMX forever. In Ideal mode nothing but bound warps moves rays: the
// swap engine is off and idealShuffle regroups only mixed rows. Once no
// row is bound, uniform fragments of one state (say leaf rows holding
// 1, 2 and 1 rays) can never merge, so the best of them must be bound
// even below the threshold.
func (c *Control) idealFrozen() bool {
	if !c.cfg.Ideal {
		return false
	}
	for _, w := range c.rowWarp {
		if w >= 0 {
			return false
		}
	}
	return true
}

// canGrow reports whether shuffling could add more rays of the given
// state to row (some other unbound row still holds rays of it).
func (c *Control) canGrow(row int, st kernels.State) bool {
	for r := range c.rows {
		if r == row || c.rowWarp[r] >= 0 {
			continue
		}
		if c.rowCounts[r][st] > 0 {
			return true
		}
	}
	return false
}

// idealShuffle instantaneously regroups all rays of unbound rows by
// state (the one-cycle shuffle of Figure 8's idealized DRS). It is a
// no-op while every unbound row is already uniform.
func (c *Control) idealShuffle() {
	mixed := false
	if c.numMixed > 0 {
		for r := range c.rows {
			if c.rowMixed[r] && c.rowWarp[r] < 0 && c.rowBusy[r] == 0 {
				mixed = true
				break
			}
		}
	}
	if !mixed {
		return
	}
	c.version++
	var byState [4][]int32
	var freeRows []int
	for r := range c.rows {
		if c.rowWarp[r] >= 0 || c.rowBusy[r] > 0 {
			continue
		}
		freeRows = append(freeRows, r)
		for l, s := range c.rows[r] {
			if s >= 0 {
				st := c.kernel.StateOf(s)
				c.rowCounts[r][st]--
				if st != kernels.StateEmpty {
					byState[st] = append(byState[st], s)
				}
			}
			c.rows[r][l] = -1
		}
		c.refreshMixed(r)
	}
	ws := c.cfg.warpSize()
	capacity := len(freeRows) * ws
	remaining := 0
	for _, st := range []kernels.State{kernels.StateInner, kernels.StateLeaf, kernels.StateFetch} {
		remaining += len(byState[st])
	}
	pos := 0 // linear cell index over freeRows
	place := func(s int32) {
		r := freeRows[pos/ws]
		c.rows[r][pos%ws] = s
		c.slotRow[s] = int32(r)
		c.rowCounts[r][c.kernel.StateOf(s)]++
		c.refreshMixed(r)
		pos++
	}
	for _, st := range []kernels.State{kernels.StateInner, kernels.StateLeaf, kernels.StateFetch} {
		group := byState[st]
		if len(group) == 0 {
			continue
		}
		// Start each state on a fresh row so rows stay uniform — but
		// only if the padding still leaves room for every ray.
		if pad := (ws - pos%ws) % ws; pad > 0 && capacity-pos-pad >= remaining {
			pos += pad
		}
		for _, s := range group {
			place(s)
		}
		remaining -= len(group)
	}
	c.stats.IdealShuffles++
}

// tick advances the swap engine by one cycle (§3.2.4): each role
// progresses its in-flight register transfers and plans new ray moves.
func (c *Control) tick(s *simt.SMX, now int64) {
	if c.cfg.Ideal {
		return
	}
	for i := range c.roles {
		c.tickRole(&c.roles[i], s, now)
	}
}

func (c *Control) tickRole(r *role, s *simt.SMX, now int64) {
	if r.op != nil {
		op := r.op
		// Retire finished transfers.
		keep := op.inflight[:0]
		for _, t := range op.inflight {
			if t.doneAt > now {
				keep = append(keep, t)
			}
		}
		op.inflight = keep
		// Issue new transfers through free buffers, contending with the
		// register file banks.
		for len(op.inflight) < r.buffers && op.varsIssued < op.varsTotal {
			if !s.RF().TryShuffleTransfer(now, op.srcRow, op.dstRow, op.varsIssued%kernels.RayRegisters) {
				break // bank busy this cycle
			}
			op.inflight = append(op.inflight, transfer{doneAt: now + 2})
			op.varsIssued++
		}
		if op.varsIssued == op.varsTotal && len(op.inflight) == 0 {
			c.completeMove(op, now)
			r.op = nil
		}
	}
	if r.op == nil {
		r.op = c.planMove(r, now)
	}
}

// completeMove applies the batched ray relocation (or exchange) to the
// row table.
func (c *Control) completeMove(op *move, now int64) {
	for i := range op.srcCells {
		a := c.rows[op.srcRow][op.srcCells[i]]
		b := c.rows[op.dstRow][op.dstCells[i]]
		c.rows[op.dstRow][op.dstCells[i]] = a
		c.rows[op.srcRow][op.srcCells[i]] = b
		if a >= 0 {
			st := c.kernel.StateOf(a)
			c.rowCounts[op.srcRow][st]--
			c.rowCounts[op.dstRow][st]++
			c.slotRow[a] = int32(op.dstRow)
			c.stats.RaysMoved++
		}
		if b >= 0 {
			st := c.kernel.StateOf(b)
			c.rowCounts[op.dstRow][st]--
			c.rowCounts[op.srcRow][st]++
			c.slotRow[b] = int32(op.srcRow)
			c.stats.RaysMoved++
		}
	}
	c.refreshMixed(op.srcRow)
	c.refreshMixed(op.dstRow)
	c.rowBusy[op.srcRow]--
	c.rowBusy[op.dstRow]--
	c.version++
	c.stats.SwapsCompleted++
	c.stats.SwapCycleSum += now - op.started
}

// planMove selects the next batched ray move for a role following the
// greedy policy (§3.2.4): collect this role's state into a collector
// row, moving rays into empty cells when possible and exchanging them
// for rays of a different state otherwise.
func (c *Control) planMove(r *role, now int64) *move {
	// Fruitless plans are memoized on the mutation version: findMove is
	// pure, so until something changes it would rescan every row and
	// find nothing again.
	if r.noMoveVersion == c.version {
		return nil
	}
	src, dst, exch, srcCells, dstCells := c.findMove(r.want, r.srcBuf[:0], r.dstBuf[:0])
	if src < 0 {
		r.noMoveVersion = c.version
		return nil
	}
	c.rowBusy[src]++
	c.rowBusy[dst]++
	c.version++
	c.stats.SwapsStarted++
	if c.traceOps != nil {
		c.traceOps(fmt.Sprintf("op %s: donor=%d -> coll=%d rays=%d exch=%v donorCounts=%v collCounts=%v",
			r.name, src, dst, len(srcCells), exch, c.rowCounts[src], c.rowCounts[dst]))
	}
	vars := kernels.RayRegisters
	if exch {
		vars *= 2
	}
	// Recycle the role's op storage (one op in flight per role): the
	// cell slices alias the role's buffers, which the next plan reuses
	// only after completeMove has consumed them.
	r.srcBuf, r.dstBuf = srcCells, dstCells
	op := &r.opStore
	inflight := op.inflight[:0]
	*op = move{
		srcRow: src, dstRow: dst,
		srcCells: srcCells, dstCells: dstCells,
		exchange: exch, varsTotal: vars, started: now,
		inflight: inflight,
	}
	return op
}

// findMove plans one batched shuffle step for the given state: pick a
// donor row, pick the collector row, and pair up as many donor rays of
// the wanted state with collector cells as possible — empty cells
// first (plain moves), then cells holding a different live state
// (exchanges).
// The cell slices are appended into the caller's buffers (srcCells,
// dstCells) so steady-state planning does not allocate; findMove itself
// mutates nothing.
func (c *Control) findMove(want kernels.State, srcCells, dstCells []int) (srcRow, dstRow int, exchange bool, srcOut, dstOut []int) {
	// Donor first: a mixed unbound row holding a wanted ray. (Choosing
	// the donor before the collector matters at drain time, when the
	// last mixed row must not be selected as its own collector.) When
	// no mixed row offers one, a partially-filled uniform row may
	// donate so equal-state rows consolidate into full rows; the
	// strict fill ordering below prevents ping-ponging.
	donor := -1
	donorScore := -1
	for r := range c.rows {
		if !c.rowMixed[r] || c.rowWarp[r] >= 0 || c.rowBusy[r] > 0 {
			continue
		}
		counts := &c.rowCounts[r]
		if counts[want] == 0 {
			continue
		}
		distinct := 0
		for s := kernels.StateFetch; s <= kernels.StateLeaf; s++ {
			if counts[s] > 0 {
				distinct++
			}
		}
		// Extracting `want` uniformizes the row iff exactly two live
		// states remain; among those, prefer minority extraction (the
		// batch then also surely fits the swap buffers).
		score := 0
		if distinct == 2 {
			score = 2
			live := counts[kernels.StateFetch] + counts[kernels.StateInner] + counts[kernels.StateLeaf]
			if counts[want]*2 <= live {
				score = 3
			}
		}
		if score > donorScore {
			donorScore = score
			donor = r
		}
	}
	uniformDonor := false
	if donor < 0 {
		// Consolidation: the least-full unbound uniform row of this
		// state donates, provided a fuller (or equal, lower-indexed)
		// row exists to receive.
		least, leastN := -1, int(^uint(0)>>1)
		rows := 0
		for r := range c.rows {
			if c.rowWarp[r] >= 0 || c.rowBusy[r] > 0 || c.rowMixed[r] {
				continue
			}
			n := c.rowCounts[r][want]
			if n == 0 || n >= c.cfg.warpSize() {
				continue
			}
			rows++
			if n < leastN || (n == leastN && r > least) {
				least, leastN = r, n
			}
		}
		if rows < 2 {
			return -1, -1, false, nil, nil
		}
		donor = least
		uniformDonor = true
	}

	// Collector: the unbound row (other than the donor) that will
	// absorb the ray without creating a new mixed row. In preference
	// order: a row already holding rays of the wanted state (grow it),
	// then a row with no live rays at all (start a fresh collector),
	// then — only as a last resort — a row whose different-state ray is
	// exchanged away.
	ws := c.cfg.warpSize()
	grow, growBest := -1, 0
	fresh := -1
	exch, exchBest := -1, ws+1
	for r := range c.rows {
		if r == donor || c.rowWarp[r] >= 0 || c.rowBusy[r] > 0 {
			continue
		}
		counts := &c.rowCounts[r]
		if counts[want] >= c.bindThreshold() {
			// Bindable already: leave it for a warp instead of locking
			// it under another swap operation.
			continue
		}
		occupied := counts[kernels.StateEmpty] + counts[kernels.StateFetch] +
			counts[kernels.StateInner] + counts[kernels.StateLeaf]
		otherLive := counts[kernels.StateFetch] + counts[kernels.StateInner] +
			counts[kernels.StateLeaf] - counts[want]
		hasSpace := occupied < ws || counts[kernels.StateEmpty] > 0
		switch {
		case counts[want] > 0 && (hasSpace || otherLive > 0):
			if counts[want] > growBest {
				growBest = counts[want]
				grow = r
			}
		case otherLive == 0 && hasSpace:
			if fresh < 0 {
				fresh = r
			}
		case otherLive > 0:
			if otherLive < exchBest {
				exchBest = otherLive
				exch = r
			}
		}
	}
	coll := grow
	if coll < 0 && !uniformDonor {
		coll = fresh
	}
	if coll < 0 && !uniformDonor {
		coll = exch
	}
	if coll < 0 {
		return -1, -1, false, nil, nil
	}
	if uniformDonor {
		// Strict fill ordering so consolidation converges: rays flow
		// from the least-full row to a strictly fuller one (ties break
		// toward the lower row index).
		dn, cn := c.rowCounts[donor][want], c.rowCounts[coll][want]
		if cn < dn || (cn == dn && coll > donor) {
			return -1, -1, false, nil, nil
		}
	}
	// Pair donor rays with collector cells. One batched operation
	// carries up to warpSize-1 rays (the swap buffer capacity): empty
	// or drained collector cells take plain moves; cells holding a
	// different live state exchange.
	capacity := ws - 1
	for l, s := range c.rows[donor] {
		if s >= 0 && c.kernel.StateOf(s) == want {
			srcCells = append(srcCells, l)
			if len(srcCells) >= capacity {
				break
			}
		}
	}
	for _, pass := range [2]bool{false, true} {
		for l, s := range c.rows[coll] {
			if len(dstCells) >= len(srcCells) {
				break
			}
			dead := s < 0 || c.kernel.StateOf(s) == kernels.StateEmpty
			other := !dead && c.kernel.StateOf(s) != want
			if (!pass && dead) || (pass && other) {
				dstCells = append(dstCells, l)
				if pass {
					exchange = true
				}
			}
		}
	}
	if len(dstCells) == 0 {
		return -1, -1, false, nil, nil
	}
	srcCells = srcCells[:len(dstCells)]
	return donor, coll, exchange, srcCells, dstCells
}

// RowCount returns the number of rows the control manages.
func (c *Control) RowCount() int { return len(c.rows) }

// RowSlots returns a copy of row r's slot ids (testing helper).
func (c *Control) RowSlots(r int) []int32 {
	out := make([]int32, len(c.rows[r]))
	copy(out, c.rows[r])
	return out
}

// WarpRow returns the row warp w is bound to (-1 if unbound).
func (c *Control) WarpRow(w int) int { return c.warpRow[w] }

// CheckInvariants verifies the structural invariants of the renaming
// and row tables: every live slot appears in exactly one cell, bindings
// are bijective, and busy counters are non-negative.
func (c *Control) CheckInvariants() error {
	// Slot occupancy counted in a dense slice so the first violating
	// slot (lowest id) is reported deterministically.
	seen := make([]int, c.kernel.NumSlots())
	live := 0
	for r := range c.rows {
		for _, s := range c.rows[r] {
			if s < 0 {
				continue
			}
			if int(s) >= len(seen) {
				return fmt.Errorf("core: cell holds slot %d but kernel has %d slots", s, len(seen))
			}
			if seen[s] == 0 {
				live++
			}
			seen[s]++
		}
	}
	for s, n := range seen {
		if n > 1 {
			return fmt.Errorf("core: slot %d appears in %d cells", s, n)
		}
	}
	if live > c.kernel.NumSlots() {
		return fmt.Errorf("core: more cells than slots")
	}
	for w, r := range c.warpRow {
		if r >= 0 && c.rowWarp[r] != w {
			return fmt.Errorf("core: warp %d claims row %d but row maps to warp %d", w, r, c.rowWarp[r])
		}
	}
	for r, w := range c.rowWarp {
		if w >= 0 && c.warpRow[w] != r {
			return fmt.Errorf("core: row %d claims warp %d but warp maps to row %d", r, w, c.warpRow[w])
		}
		if c.rowBusy[r] < 0 {
			return fmt.Errorf("core: row %d busy count negative", r)
		}
	}
	return nil
}
