package experiments

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/scene"
)

// Fig8Config names one bar group of Figure 8's backup-row sweep.
type Fig8Config struct {
	Label string
	// Aila selects the software baseline instead of the DRS.
	Aila bool
	DRS  core.Config
}

// Fig8Configs returns the configurations Figure 8 compares: one backup
// row without the extra register bank, 1/2/4/8 backup rows with it,
// the idealized DRS, and Aila's software method.
func Fig8Configs() []Fig8Config {
	mk := func(label string, rows int, extra, ideal bool) Fig8Config {
		c := core.DefaultConfig()
		c.BackupRows = rows
		c.ExtraBank = extra
		c.Ideal = ideal
		return Fig8Config{Label: label, DRS: c}
	}
	return []Fig8Config{
		mk("1-row (no extra bank)", 1, false, false),
		mk("1-row", 1, true, false),
		mk("2-row", 2, true, false),
		mk("4-row", 4, true, false),
		mk("8-row", 8, true, false),
		mk("ideal", 1, true, true),
		{Label: "aila", Aila: true},
	}
}

// Fig8Cell is one measurement of the sweep.
type Fig8Cell struct {
	Scene  scene.Benchmark
	Bounce int
	Config string
	Mrays  float64
	// StallRate is the rdctrl warp-issue stall rate (Figure 9 reports
	// this for the conference room and fairy forest benchmarks).
	StallRate float64
}

// Figure8Ctx reproduces Figures 8 and 9: simulated ray tracing
// performance for the first `bounces` bounces (<= 0 selects 4, the
// paper's B1-B4) of each scene (nil = all four) under each backup-row
// configuration, including the idealized DRS and Aila's method. Cells
// with an empty bounce stream are omitted.
func Figure8Ctx(ctx context.Context, p Params, bounces int, scenes []scene.Benchmark) ([]Fig8Cell, error) {
	if bounces <= 0 {
		bounces = 4
	}
	if scenes == nil {
		scenes = scene.Benchmarks
	}
	cfgs := Fig8Configs()
	points := make([]point, len(cfgs))
	for i, cfg := range cfgs {
		points[i] = point{label: cfg.Label, policy: "aila", opt: p.Options}
		if !cfg.Aila {
			points[i].policy = "drs"
			points[i].opt.Policy = core.NewPolicy(cfg.DRS)
		}
	}
	res, err := runGrid(ctx, p, "fig8", scenes, points, bounces)
	if err != nil {
		return nil, err
	}
	var cells []Fig8Cell
	for si, b := range scenes {
		for ci, cfg := range cfgs {
			for i, r := range res[si][ci] {
				if r.ok {
					cells = append(cells, Fig8Cell{
						Scene:     b,
						Bounce:    i + 1,
						Config:    cfg.Label,
						Mrays:     r.mrays,
						StallRate: r.stats.CtrlStallRate(),
					})
				}
			}
		}
	}
	return cells, nil
}

func fig8Key(c Fig8Cell) cellKey { return cellKey{c.Scene, c.Config, c.Bounce} }

// RenderFigure8 prints the Mrays/s sweep, one table per scene with one
// row per configuration and one column per bounce.
func RenderFigure8(cells []Fig8Cell, bounces int) string {
	out := "Figure 8: simulated ray tracing performance (Mrays/s) by backup-row configuration\n"
	idx := indexCells(cells, fig8Key)
	for _, b := range scene.Benchmarks {
		var rows [][]string
		for _, cfg := range Fig8Configs() {
			row := []string{cfg.Label}
			found := false
			for bounce := 1; bounce <= bounces; bounce++ {
				v := ""
				if c, ok := idx[cellKey{b, cfg.Label, bounce}]; ok {
					v = f1(c.Mrays)
					found = true
				}
				row = append(row, v)
			}
			if found {
				rows = append(rows, row)
			}
		}
		if len(rows) == 0 {
			continue
		}
		header := []string{b.String()}
		for bounce := 1; bounce <= bounces; bounce++ {
			header = append(header, fmt.Sprintf("B%d", bounce))
		}
		out += table(header, rows) + "\n"
	}
	return out
}

// RenderFigure9 prints the rdctrl warp-issue stall rates for the
// conference room and fairy forest benchmarks (Figure 9).
func RenderFigure9(cells []Fig8Cell, bounces int) string {
	out := "Figure 9: warp issue stall rate of the rdctrl instruction\n"
	idx := indexCells(cells, fig8Key)
	for _, b := range []scene.Benchmark{scene.ConferenceRoom, scene.FairyForest} {
		var rows [][]string
		for _, cfg := range Fig8Configs() {
			if cfg.Aila || cfg.DRS.Ideal {
				continue
			}
			row := []string{cfg.Label}
			found := false
			for bounce := 1; bounce <= bounces; bounce++ {
				v := ""
				if c, ok := idx[cellKey{b, cfg.Label, bounce}]; ok {
					v = pct(c.StallRate)
					found = true
				}
				row = append(row, v)
			}
			if found {
				rows = append(rows, row)
			}
		}
		if len(rows) == 0 {
			continue
		}
		header := []string{b.String()}
		for bounce := 1; bounce <= bounces; bounce++ {
			header = append(header, fmt.Sprintf("B%d", bounce))
		}
		out += table(header, rows) + "\n"
	}
	return out
}
