package experiments

import (
	"context"
	"fmt"
	"strconv"

	"repro/internal/core"
	"repro/internal/scene"
)

// Table2Cell is one measurement of the swap-buffer sweep.
type Table2Cell struct {
	Scene   scene.Benchmark
	Bounce  int
	Buffers int
	Mrays   float64
	// MeanSwapCycles is the average clock cycles one batched ray swap
	// took (§4.3 reports 31.6/25.0/24.3/22.0 for 6/9/12/18 buffers).
	MeanSwapCycles float64
}

// Table2Buffers is the paper's swap-buffer sweep.
var Table2Buffers = []int{6, 9, 12, 18}

// Table2Ctx reproduces Table 2: ray tracing performance under 6, 9, 12
// and 18 swap buffers, for the first `bounces` bounces (<= 0 selects
// 4, the paper's B1-B4) of each scene (nil = all four). Cells with an
// empty bounce stream are omitted.
func Table2Ctx(ctx context.Context, p Params, bounces int, scenes []scene.Benchmark) ([]Table2Cell, error) {
	if bounces <= 0 {
		bounces = 4
	}
	if scenes == nil {
		scenes = scene.Benchmarks
	}
	// The mean swap duration comes from the metrics registry, so every
	// point runs observed; observing never changes a simulated number.
	opt := p.Options
	opt.Observe = true
	points := make([]point, len(Table2Buffers))
	for i, bufs := range Table2Buffers {
		cfg := core.DefaultConfig()
		cfg.SwapBuffers = bufs
		points[i] = pinnedPoint(fmt.Sprintf("#%d", bufs), core.NewPolicy(cfg), opt)
	}
	res, err := runGrid(ctx, p, "table2", scenes, points, bounces)
	if err != nil {
		return nil, err
	}
	var cells []Table2Cell
	for si, b := range scenes {
		for bi, bufs := range Table2Buffers {
			for i, r := range res[si][bi] {
				if r.ok {
					cells = append(cells, Table2Cell{
						Scene:          b,
						Bounce:         i + 1,
						Buffers:        bufs,
						Mrays:          r.mrays,
						MeanSwapCycles: r.meanSwapCycles,
					})
				}
			}
		}
	}
	return cells, nil
}

func table2Key(c Table2Cell) cellKey { return cellKey{c.Scene, strconv.Itoa(c.Buffers), c.Bounce} }

// RenderTable2 prints the swap-buffer sweep in the paper's layout:
// scenes and bounces as rows, buffer counts as columns.
func RenderTable2(cells []Table2Cell, bounces int) string {
	header := []string{"test", "bounce"}
	for _, bufs := range Table2Buffers {
		header = append(header, fmt.Sprintf("#%d", bufs))
	}
	idx := indexCells(cells, table2Key)
	var rows [][]string
	for _, b := range scene.Benchmarks {
		for bounce := 1; bounce <= bounces; bounce++ {
			row := []string{b.String(), fmt.Sprintf("B%d", bounce)}
			found := false
			for _, bufs := range Table2Buffers {
				v := ""
				if c, ok := idx[cellKey{b, strconv.Itoa(bufs), bounce}]; ok {
					v = f1(c.Mrays)
					found = true
				}
				row = append(row, v)
			}
			if found {
				rows = append(rows, row)
			}
		}
	}
	out := "Table 2: ray tracing performance (Mrays/s) by swap buffer count\n" + table(header, rows)

	// Mean swap durations, aggregated per buffer count (§4.3 text).
	out += "\nMean cycles per ray swap:\n"
	for _, bufs := range Table2Buffers {
		var sum float64
		n := 0
		for _, c := range cells {
			if c.Buffers == bufs && c.MeanSwapCycles > 0 {
				sum += c.MeanSwapCycles
				n++
			}
		}
		if n > 0 {
			out += fmt.Sprintf("  #%d buffers: %.1f cycles\n", bufs, sum/float64(n))
		}
	}
	return out
}
