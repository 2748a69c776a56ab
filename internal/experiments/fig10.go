package experiments

import (
	"context"
	"fmt"

	"repro/internal/scene"
	"repro/internal/simt"
)

// ArchCell is one architecture/scene/bounce measurement for the
// Figure 10/11 comparison (Aila vs DMK vs TBC vs DRS).
type ArchCell struct {
	Scene scene.Benchmark
	// Policy is the registered policy name of the architecture.
	Policy    string
	Bounce    int // 0 = overall (all bounces merged)
	Rays      int
	Eff       float64
	Breakdown simt.Breakdown
	Mrays     float64
	// RFShuffleShare is the register file access share of ray
	// shuffling (§4.4, DRS only).
	RFShuffleShare float64
	// L1TexMissRate supports the sponza analysis of §4.4.
	L1TexMissRate float64
	// SpawnConflictShare is DMK's spawn-memory conflict cycles over
	// total cycles (§4.4 reports 7.95%-19.97%).
	SpawnConflictShare float64
}

// comparisonPolicies names the four architectures of Figures 10 and 11
// in their presentation order.
var comparisonPolicies = []string{"aila", "dmk", "tbc", "drs"}

// Figure10Ctx reproduces Figures 10 and 11: SIMD efficiency with
// utilization breakdown and ray tracing performance for Aila's method,
// DMK, TBC and the DRS on each scene (nil = all four). Bounces
// 1..Params.Bounces (0 = 8) are simulated; the first perBounce (<= 0
// selects 3) get their own cells and all of them merge into an overall
// cell (Bounce 0), as the paper shows B1-B3 plus the overall result.
func Figure10Ctx(ctx context.Context, p Params, perBounce int, scenes []scene.Benchmark) ([]ArchCell, error) {
	if perBounce <= 0 {
		perBounce = 3
	}
	if scenes == nil {
		scenes = scene.Benchmarks
	}
	bounces := p.Bounces
	if bounces <= 0 {
		bounces = 8
	}
	res, err := runGrid(ctx, p, "fig10", scenes, namedPoints(comparisonPolicies, p.Options), bounces)
	if err != nil {
		return nil, err
	}
	warp := p.Options.Simt.WarpSize
	var cells []ArchCell
	for si, b := range scenes {
		for ai, name := range comparisonPolicies {
			for i, r := range res[si][ai] {
				if r.ok && i < perBounce {
					cells = append(cells, ArchCell{
						Scene: b, Policy: name, Bounce: i + 1,
						Rays: r.rays, Eff: r.eff,
						Breakdown:          r.stats.UtilizationBreakdown(warp),
						Mrays:              r.mrays,
						RFShuffleShare:     r.rfShuffleShare,
						L1TexMissRate:      r.l1TexMissRate,
						SpawnConflictShare: spawnShare(r.stats),
					})
				}
			}
			all := merge(res[si][ai], p.Options)
			cells = append(cells, ArchCell{
				Scene: b, Policy: name, Bounce: 0,
				Rays:      all.rays,
				Eff:       all.eff,
				Breakdown: all.stats.UtilizationBreakdown(warp),
				Mrays:     all.mrays,
			})
		}
	}
	return cells, nil
}

func spawnShare(st simt.Stats) float64 {
	if st.Cycles == 0 {
		return 0
	}
	return float64(st.SpawnConflictCycles) / float64(st.Cycles)
}

func archKey(c ArchCell) cellKey { return cellKey{c.Scene, c.Policy, c.Bounce} }

// RenderFigure10 prints the SIMD efficiency / breakdown comparison.
func RenderFigure10(cells []ArchCell, perBounce int) string {
	out := "Figure 10: SIMD efficiency and utilization breakdown (Aila / DMK / TBC / DRS)\n"
	header := []string{"scene", "bounce", "arch", "SIMD eff", "W1:8", "W9:16", "W17:24", "W25:32", "SI"}
	idx := indexCells(cells, archKey)
	var rows [][]string
	for _, b := range scene.Benchmarks {
		for bounce := 1; bounce <= perBounce+1; bounce++ {
			bn := bounce
			label := fmt.Sprintf("B%d", bounce)
			if bounce == perBounce+1 {
				bn = 0
				label = "all"
			}
			for _, name := range comparisonPolicies {
				c, ok := idx[cellKey{b, name, bn}]
				if !ok {
					continue
				}
				rows = append(rows, []string{
					b.String(), label, name,
					pct(c.Eff),
					pct(c.Breakdown.W1to8), pct(c.Breakdown.W9to16),
					pct(c.Breakdown.W17to24), pct(c.Breakdown.W25to32),
					pct(c.Breakdown.SI),
				})
			}
		}
	}
	return out + table(header, rows)
}

// RenderFigure11 prints the performance and speedup comparison
// (speedups normalized to Aila's software method, as in Figure 11).
func RenderFigure11(cells []ArchCell, perBounce int) string {
	out := "Figure 11: ray tracing performance (Mrays/s) and speedup vs Aila\n"
	header := []string{"scene", "bounce", "aila", "dmk", "tbc", "drs", "dmk x", "tbc x", "drs x"}
	idx := indexCells(cells, archKey)
	var rows [][]string
	for _, b := range scene.Benchmarks {
		for bounce := 1; bounce <= perBounce+1; bounce++ {
			bn := bounce
			label := fmt.Sprintf("B%d", bounce)
			if bounce == perBounce+1 {
				bn = 0
				label = "all"
			}
			aila, ok := idx[cellKey{b, "aila", bn}]
			if !ok {
				continue
			}
			dmk := idx[cellKey{b, "dmk", bn}]
			tbc := idx[cellKey{b, "tbc", bn}]
			drs := idx[cellKey{b, "drs", bn}]
			speed := func(v float64) string {
				if aila.Mrays == 0 {
					return "-"
				}
				return fmt.Sprintf("%.2fx", v/aila.Mrays)
			}
			rows = append(rows, []string{
				b.String(), label,
				f1(aila.Mrays), f1(dmk.Mrays), f1(tbc.Mrays), f1(drs.Mrays),
				speed(dmk.Mrays), speed(tbc.Mrays), speed(drs.Mrays),
			})
		}
	}
	return out + table(header, rows)
}
