// Differential pin of the simulator core and the experiment grid: the
// reduced-scale Figure 10 and Table 2 tables, and the raw cells of
// every grid figure (Figures 2, 8, 10, Table 2, the cross-policy
// comparison and the architecture sweep), must regenerate byte for
// byte at every scheduler parallelism. The tables predate the SoA
// engine; the cell pins predate the single grid runner. Any diff is a
// semantic change to the simulated device or to how a figure assembles
// its cells — the epoch-barrier engine leaves no room for noise.
//
// Regenerate consciously with:
//
//	go test -run TestSimtCoreGolden -update-simtcore .
package main

import (
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/experiments"
	"repro/internal/scene"
)

var updateSimtcore = flag.Bool("update-simtcore", false,
	"rewrite testdata/simtcore_golden_* from the current simulator")

// simtcoreParams is the fixed reduced-scale workload the goldens pin.
// Small enough for tier-1 (a few seconds per run), large enough that
// all four architectures shuffle, compact and respawn for thousands of
// cycles per SMX.
func simtcoreParams(par int) experiments.Params {
	p := experiments.DefaultParams()
	p.Tris = 1500
	p.Width = 80
	p.Height = 60
	p.Bounces = 2
	p.Options.Parallelism = par
	return p
}

// simtcoreGoldens runs every grid figure at the reduced scale and
// returns the pinned outputs keyed by golden file suffix: the rendered
// Figure 10 and Table 2 tables, plus the JSON cells of each figure.
// Figure 8 and the policies figure cap each bounce at 64 rays, the
// sweep at 16, and Figure 8 and the sweep run one bounce. A DRS cell
// keeps every persistent warp of each SMX that got rays busy for the
// whole launch, so on the 128-SMX sweep device the cost follows the
// number of SMXs with work, not the ray count; at 16 rays the sweep's
// 18 cells take ~2 s sequentially on a 2-core host.
func simtcoreGoldens(t *testing.T, par int, cache *experiments.WorkloadCache) map[string]string {
	t.Helper()
	ctx := context.Background()
	p := simtcoreParams(par)
	p.Cache = cache
	conf := []scene.Benchmark{scene.ConferenceRoom}
	fairy := []scene.Benchmark{scene.FairyForest}
	check := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("par %d: %v", par, err)
		}
	}
	cellsJSON := func(cells any) string {
		t.Helper()
		js, err := json.Marshal(cells)
		check(err)
		return string(js) + "\n"
	}

	fig2, err := experiments.Figure2Ctx(ctx, p)
	check(err)
	fig10, err := experiments.Figure10Ctx(ctx, p, 2, conf)
	check(err)
	table2, err := experiments.Table2Ctx(ctx, p, 2, fairy)
	check(err)
	capped := p
	capped.MaxRaysPerBounce = 64
	fig8, err := experiments.Figure8Ctx(ctx, capped, 1, conf)
	check(err)
	policies, err := experiments.PoliciesFigureCtx(ctx, capped, 2, conf, nil)
	check(err)
	capped.MaxRaysPerBounce = 16
	sweeps, err := experiments.SweepsFigureCtx(ctx, capped, 1, conf)
	check(err)

	return map[string]string{
		"fig10.txt":     experiments.RenderFigure10(fig10, 2),
		"table2.txt":    experiments.RenderTable2(table2, 2),
		"fig2.json":     cellsJSON(fig2),
		"fig8.json":     cellsJSON(fig8),
		"fig10.json":    cellsJSON(fig10),
		"table2.json":   cellsJSON(table2),
		"policies.json": cellsJSON(policies),
		"sweeps.json":   cellsJSON(sweeps),
	}
}

// TestSimtCoreCheckDeterminism runs the reduced-scale Figure 10 with
// the harness's run-twice assertion enabled at every scheduler
// parallelism: each device simulation executes twice and any snapshot
// divergence (stats, hits, cycles) fails inside the harness. This is
// the dynamic complement to the byte-compared goldens — it would catch
// a nondeterminism the fixed golden workload happens not to excite.
func TestSimtCoreCheckDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("reduced-scale device simulation; skipped with -short")
	}
	cache := experiments.NewWorkloadCache()
	for _, par := range []int{1, 2, 4} {
		p := simtcoreParams(par)
		p.Cache = cache
		p.Options.CheckDeterminism = true
		if _, err := experiments.Figure10Ctx(context.Background(), p, 2, []scene.Benchmark{scene.ConferenceRoom}); err != nil {
			t.Fatalf("par %d: determinism check failed: %v", par, err)
		}
	}
}

func TestSimtCoreGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("reduced-scale device simulation; skipped with -short")
	}
	var goldens map[string]string
	cache := experiments.NewWorkloadCache()
	for _, par := range []int{1, 2, 4} {
		got := simtcoreGoldens(t, par, cache)
		for name, out := range goldens {
			if got[name] != out {
				t.Fatalf("%s output differs between -par values (par=%d)", name, par)
			}
		}
		goldens = got
	}

	for name, got := range goldens {
		path := filepath.Join("testdata", "simtcore_golden_"+name)
		if *updateSimtcore {
			if err := os.MkdirAll("testdata", 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
			t.Logf("rewrote %s (%d bytes)", path, len(got))
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("read golden: %v (regenerate with -update-simtcore)", err)
		}
		if got != string(want) {
			t.Errorf("%s diverged from golden %s;\ngot:\n%s\nwant:\n%s",
				name, path, got, want)
		}
	}
}
