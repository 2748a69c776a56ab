package main

import (
	"fmt"
	"sort"
)

// workloads maps each workload name to its constructor. scratch is a
// per-run directory inside the checkout for stores and temp files.
var workloads = map[string]func(seed uint64, scratch string) workload{
	"grid-gtx780":    newGrid,
	"drs-modern-big": newModernBig,
	"drsd-mix":       newDrsdMix,
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// metricDef is one metric as BENCHMARK.json declares it.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEndDefs are the metrics an untraced run reports, with the
// share of the parent's median by which each may worsen.
func endToEndDefs() []metricDef {
	return []metricDef{
		{"setup_s", "s", "lower", 0.25},
		{"wall_s", "s", "lower", 0.25},
		{"sim_minstr_per_s", "Minstr/s", "higher", 0.25},
		{"alloc_mb", "MB", "lower", 0.15},
		{"live_heap_mb", "MB", "lower", 0.1},
		{"job_p50_s", "s", "lower", 0.25},
		{"jobs_per_s", "1/s", "higher", 0.25},
	}
}

// perLayerDefs are the metrics a traced run reports. A workload that
// does not exercise a layer reports its metrics as 0.
func perLayerDefs() []metricDef {
	defs := []metricDef{
		{"experiments.scene_s", "s", "lower", 0},
		{"experiments.bvh_s", "s", "lower", 0},
		{"experiments.render_s", "s", "lower", 0},
		{"experiments.rays", "rays", "higher", 0},
	}
	perPolicy := []metricDef{
		{"harness.run_s", "s", "lower", 0},
		{"harness.ns_per_winstr", "ns", "lower", 0},
		{"simt.cycles", "cycles", "lower", 0},
		{"simt.warp_instrs", "instrs", "lower", 0},
		{"simt.issue_used_ratio", "ratio", "higher", 0},
		{"simt.epochs", "count", "lower", 0},
		{"memsys.l1tex_miss_rate", "ratio", "lower", 0},
		{"memsys.l2_miss_rate", "ratio", "lower", 0},
		{"memsys.txn_per_mem_instr", "ratio", "lower", 0},
	}
	for _, d := range perPolicy {
		for _, p := range policies() {
			defs = append(defs, metricDef{d.Name + "." + p, d.Unit, d.Better, 0})
		}
	}
	return append(defs, []metricDef{
		{"core.ctrl_stall_rate", "ratio", "lower", 0},
		{"core.rays_moved", "rays", "lower", 0},
		{"reorder.rays_moved.ser", "rays", "lower", 0},
		{"reorder.cost_cycles.sort", "cycles", "lower", 0},
		{"tbc.barrier_stall_cycles", "cycles", "lower", 0},
		{"dmk.spawn_conflict_cycles", "cycles", "lower", 0},
		{"metrics.observe_overhead", "ratio", "lower", 0},
		{"cellsched.busy_ratio", "ratio", "higher", 0},
		{"cellsched.tail_s", "s", "lower", 0},
		{"service.fresh_p50_ms", "ms", "lower", 0},
		{"service.observed_p50_ms", "ms", "lower", 0},
		{"service.dedup_p50_ms", "ms", "lower", 0},
		{"service.build_miss_p50_ms", "ms", "lower", 0},
		{"service.http_get_p50_ms", "ms", "lower", 0},
		{"service.dedup_ratio", "ratio", "higher", 0},
		{"service.workload_build_ratio", "ratio", "lower", 0},
		{"service.retries", "count", "lower", 0},
		{"artifact.put_p50_ms", "ms", "lower", 0},
		{"artifact.get_p50_us", "us", "lower", 0},
		{"artifact.bytes_per_job", "bytes", "lower", 0},
		{"trace.overhead_ratio", "ratio", "lower", 0},
	}...)
}

// complete checks m against defs: every metric m holds must be
// declared with the same unit, and every declared metric m lacks is
// added as 0 (the layer did no work on this workload). The result is
// in declaration order.
func complete(m metricSet, defs []metricDef) (metricSet, error) {
	declared := make(map[string]string, len(defs))
	for _, d := range defs {
		declared[d.Name] = d.Unit
	}
	for _, n := range m.names {
		unit, ok := declared[n]
		if !ok {
			return m, fmt.Errorf("metric %s is not declared", n)
		}
		if unit != m.vals[n].Unit {
			return m, fmt.Errorf("metric %s has unit %s, declared %s", n, m.vals[n].Unit, unit)
		}
	}
	var out metricSet
	for _, d := range defs {
		v, ok := m.vals[d.Name]
		if !ok {
			v = metricValue{Unit: d.Unit}
		}
		out.add(d.Name, v.Value, v.Unit)
	}
	return out, nil
}
