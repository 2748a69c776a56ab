package harness

import (
	"fmt"

	"repro/internal/metrics"
)

// phase names for the per-epoch dominant warp-state slice, in fixed
// priority order for deterministic tie-breaks (an epoch whose census
// deltas tie reports the earlier phase).
var tracePhases = [...]struct {
	name string
	col  string
}{
	{"exec", "sampled_exec"},
	{"mem", "sampled_mem"},
	{"gate", "sampled_gate"},
	{"parked", "sampled_parked"},
}

// ChromeTrace converts the run's epoch time-series into a Chrome
// trace-event JSON document (chrome://tracing, Perfetto). One device
// cycle maps to one microsecond of trace time. Per SMX it emits:
//
//   - an "X" slice per epoch on the SMX's thread, named by the dominant
//     warp state in that epoch (exec/mem/gate/parked, from the sampled
//     warp-state census), carrying the issued-instruction delta;
//   - counter tracks for occupancy (live warps) and the epoch's L2
//     port queue depth;
//
// plus a device-wide counter of L2 accesses/misses per epoch. The
// process is named after the policy that ran ("gpu/drs"). Requires an
// observed run (Options.Observe).
func (r *Result) ChromeTrace() (*metrics.Trace, error) {
	if r.Series == nil {
		return nil, fmt.Errorf("harness: no metrics series: run with Options.Observe")
	}
	if r.Series.Len() == 0 {
		return nil, fmt.Errorf("harness: empty epoch time-series: the run finished before its first epoch barrier")
	}
	s := r.Series
	n := r.Config.NumSMX
	t := metrics.NewTrace()
	t.ProcessName(0, "gpu/"+r.Policy)
	for i := 0; i < n; i++ {
		t.ThreadName(0, i, fmt.Sprintf("smx%d", i))
	}
	if s.Dropped() > 0 {
		// The ring evicted early epochs: mark the truncation instead of
		// silently rendering a partial timeline.
		firstCycle, _ := s.At(0)
		t.Instant(0, 0, fmt.Sprintf("series ring dropped %d earlier epochs", s.Dropped()), firstCycle)
	}

	// Column indices per SMX, resolved once.
	type smxCols struct {
		live, instrs, queue int
		phases              [len(tracePhases)]int
	}
	cols := make([]smxCols, n)
	for i := 0; i < n; i++ {
		p := fmt.Sprintf("smx%d", i)
		cols[i].live = s.ColumnIndex(p + "/live_warps")
		cols[i].instrs = s.ColumnIndex(p + "/warp_instrs")
		cols[i].queue = s.ColumnIndex(p + "/l2_queue")
		for k := range tracePhases {
			cols[i].phases[k] = s.ColumnIndex(p + "/" + tracePhases[k].col)
		}
	}
	l2Acc, l2Miss := s.ColumnIndex("l2/accesses"), s.ColumnIndex("l2/misses")

	prev := make([][]int64, n) // previous row's cumulative values per SMX
	var prevCycle int64
	var prevL2 [2]int64
	for k := 0; k < s.Len(); k++ {
		cycle, row := s.At(k)
		epochStart := prevCycle
		if k == 0 {
			// First retained epoch: its start is one epoch before its end
			// (all epochs have the same nominal length), floored at 0.
			epochStart = cycle - r.Config.EpochLen()
			if epochStart < 0 {
				epochStart = 0
			}
		}
		dur := cycle - epochStart
		if dur <= 0 {
			dur = 1
		}
		for i := 0; i < n; i++ {
			c := &cols[i]
			// Dominant warp state this epoch, by census delta.
			best, bestDelta := -1, int64(0)
			var deltas [len(tracePhases)]int64
			for pi := range tracePhases {
				if c.phases[pi] < 0 {
					continue
				}
				d := row[c.phases[pi]]
				if prev[i] != nil {
					d -= prev[i][c.phases[pi]]
				}
				deltas[pi] = d
				if d > bestDelta {
					best, bestDelta = pi, d
				}
			}
			issued := int64(0)
			if c.instrs >= 0 {
				issued = row[c.instrs]
				if prev[i] != nil {
					issued -= prev[i][c.instrs]
				}
			}
			name := "idle"
			if best >= 0 {
				name = tracePhases[best].name
			} else if issued > 0 {
				// Epochs shorter than the 64-cycle census interval have no
				// census delta; fall back on issue activity.
				name = "exec"
			}
			args := []metrics.Arg{{Name: "issued_instrs", Value: issued}}
			for pi := range tracePhases {
				args = append(args, metrics.Arg{Name: tracePhases[pi].col, Value: deltas[pi]})
			}
			t.Slice(0, i, name, epochStart, dur, args)
			if c.live >= 0 {
				t.Counter(0, fmt.Sprintf("smx%d occupancy", i), cycle,
					[]metrics.Arg{{Name: "active_warps", Value: row[c.live]}})
			}
			if c.queue >= 0 {
				t.Counter(0, fmt.Sprintf("smx%d l2 queue", i), cycle,
					[]metrics.Arg{{Name: "queued_reqs", Value: row[c.queue]}})
			}
			if prev[i] == nil {
				prev[i] = make([]int64, len(row))
			}
			copy(prev[i], row)
		}
		if l2Acc >= 0 && l2Miss >= 0 {
			acc, miss := row[l2Acc], row[l2Miss]
			t.Counter(0, "l2 traffic", cycle, []metrics.Arg{
				{Name: "hits", Value: (acc - prevL2[0]) - (miss - prevL2[1])},
				{Name: "misses", Value: miss - prevL2[1]},
			})
			prevL2[0], prevL2[1] = acc, miss
		}
		prevCycle = cycle
	}
	return t, nil
}
