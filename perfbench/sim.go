package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand/v2"
	"strings"

	"repro/internal/bvh"
	"repro/internal/geom"
	"repro/internal/harness"
	"repro/internal/kernels"
)

// policies is every registered reordering policy, in registry order.
func policies() []string { return harness.Policies().Names() }

// seededRand returns the generator for one named input of a run. Each
// input gets its own stream so adding an input never shifts another.
func seededRand(seed uint64, input string) *rand.Rand {
	h := sha256.Sum256([]byte(input))
	var k uint64
	for _, b := range h[:8] {
		k = k<<8 | uint64(b)
	}
	return rand.New(rand.NewPCG(seed, k))
}

// windowStart picks where a size-long contiguous window starts in a
// stream of n rays. Contiguous windows keep the stream's pixel-order
// coherence.
func windowStart(seed uint64, key string, n, size int) (int, error) {
	if n < size {
		return 0, fmt.Errorf("%s: stream has %d rays, window needs %d", key, n, size)
	}
	return seededRand(seed, "window/"+key).IntN(n - size + 1), nil
}

// window is one seeded slice of a captured bounce stream together with
// the scene it is traced against and its CPU reference hits.
type window struct {
	key  string // "conference/B1"
	rays []geom.Ray
	data *kernels.SceneData
	bvh  *bvh.BVH
	want []geom.Hit
}

// reference computes the CPU BVH hits the simulated cells must match.
func (w *window) reference() {
	w.want = make([]geom.Hit, len(w.rays))
	for i, r := range w.rays {
		w.want[i] = w.bvh.Intersect(r, nil)
	}
}

// wrongHits counts hits that disagree with the reference. Like the
// repository's own hit tests it accepts a different triangle at the
// same distance, where coincident surfaces tie.
func (w *window) wrongHits(got []geom.Hit) int {
	if len(got) != len(w.want) {
		return len(w.want)
	}
	bad := 0
	for i, want := range w.want {
		g := got[i]
		if g.TriIndex == want.TriIndex {
			continue
		}
		d := g.T - want.T
		if g.TriIndex >= 0 && want.TriIndex >= 0 && d < 1e-4 && d > -1e-4 {
			continue
		}
		bad++
	}
	return bad
}

// statsDigest fingerprints a run's simulated device statistics, so two
// commits (or two rounds) can be compared exactly.
func statsDigest(res *harness.Result) string {
	h := sha256.New()
	fmt.Fprintf(h, "%+v|%+v|%v|%+v", res.GPU.Stats, res.GPU.PerSMX, res.GPU.L1TexMissRate, res.Reorder)
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// simAgg accumulates one policy's simulated counters from the metrics
// registry snapshots of observed runs.
type simAgg struct {
	cycles, warpInstrs       int64
	slotsUsed, slotsTotal    int64
	l1tAcc, l1tMiss          int64
	l2Acc, l2Miss            int64
	memInstrs, memTxns       int64
	epochs                   float64
	ctrlStalls, ctrlInstrs   int64
	drsMoved, serMoved       int64
	sortCost                 int64
	barrierStall, spawnConfl int64
}

// addSnapshot folds one run's metrics registry snapshot, keyed by the
// registry's paths, into the aggregate.
func (a *simAgg) addSnapshot(snap map[string]int64) {
	var cycles, epochLen int64
	for p, v := range snap {
		switch {
		case p == "l2/accesses":
			a.l2Acc += v
		case p == "l2/misses":
			a.l2Miss += v
		case p == "run/epoch_cycles":
			epochLen = v
		case p == "run/sort_cost_cycles":
			a.sortCost += v
		case strings.HasPrefix(p, "smx"):
			_, field, ok := strings.Cut(p, "/")
			if !ok {
				continue
			}
			switch field {
			case "cycles":
				cycles = max(cycles, v)
			case "warp_instrs":
				a.warpInstrs += v
			case "issue_slots_used":
				a.slotsUsed += v
			case "issue_slots_total":
				a.slotsTotal += v
			case "l1t/accesses":
				a.l1tAcc += v
			case "l1t/misses":
				a.l1tMiss += v
			case "mem_instrs":
				a.memInstrs += v
			case "mem_transactions":
				a.memTxns += v
			case "ctrl_stalls":
				a.ctrlStalls += v
			case "ctrl_instrs":
				a.ctrlInstrs += v
			case "drs/rays_moved":
				a.drsMoved += v
			case "ser/threads_moved":
				a.serMoved += v
			case "barrier_stall_cycles":
				a.barrierStall += v
			case "spawn_conflict_cycles":
				a.spawnConfl += v
			}
		}
	}
	a.cycles += cycles
	if epochLen > 0 {
		a.epochs += float64(cycles) / float64(epochLen)
	}
}

// addSimMetrics writes the simulated per-layer metrics of every
// policy. Policies a workload does not run report zeros.
func addSimMetrics(m *metricSet, aggs map[string]*simAgg) {
	get := func(p string) *simAgg {
		if a := aggs[p]; a != nil {
			return a
		}
		return &simAgg{}
	}
	for _, p := range policies() {
		a := get(p)
		m.add("simt.cycles."+p, float64(a.cycles), "cycles")
		m.add("simt.warp_instrs."+p, float64(a.warpInstrs), "instrs")
		m.add("simt.issue_used_ratio."+p, ratio(float64(a.slotsUsed), float64(a.slotsTotal)), "ratio")
		m.add("simt.epochs."+p, a.epochs, "count")
		m.add("memsys.l1tex_miss_rate."+p, ratio(float64(a.l1tMiss), float64(a.l1tAcc)), "ratio")
		m.add("memsys.l2_miss_rate."+p, ratio(float64(a.l2Miss), float64(a.l2Acc)), "ratio")
		m.add("memsys.txn_per_mem_instr."+p, ratio(float64(a.memTxns), float64(a.memInstrs)), "ratio")
	}
	drs := get("drs")
	m.add("core.ctrl_stall_rate", ratio(float64(drs.ctrlStalls), float64(drs.ctrlStalls+drs.ctrlInstrs)), "ratio")
	m.add("core.rays_moved", float64(drs.drsMoved), "rays")
	m.add("reorder.rays_moved.ser", float64(get("ser").serMoved), "rays")
	m.add("reorder.cost_cycles.sort", float64(get("sort").sortCost), "cycles")
	m.add("tbc.barrier_stall_cycles", float64(get("tbc").barrierStall), "cycles")
	m.add("dmk.spawn_conflict_cycles", float64(get("dmk").spawnConfl), "cycles")
}
