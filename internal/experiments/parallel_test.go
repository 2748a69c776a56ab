package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"testing"

	"repro/internal/cellsched"
	"repro/internal/harness"
	"repro/internal/scene"
)

// The scheduler's core guarantee, asserted end to end: Figure 10 run
// with N workers is byte-identical to the sequential run — both the
// raw cells (the "golden stats" JSON drsbench -json emits) and the
// rendered tables.
func TestFigure10ParallelByteIdentical(t *testing.T) {
	p := tinyParams()
	p.Bounces = 2
	p.Cache = NewWorkloadCache() // shared, so only par differs between runs
	run := func(par int) (cellsJSON []byte, t10, t11 string) {
		t.Helper()
		pp := p
		pp.Options.Parallelism = par
		cells, err := Figure10Ctx(context.Background(), pp, 2, []scene.Benchmark{scene.ConferenceRoom})
		if err != nil {
			t.Fatalf("par=%d: %v", par, err)
		}
		js, err := json.Marshal(cells)
		if err != nil {
			t.Fatal(err)
		}
		return js, RenderFigure10(cells, 2), RenderFigure11(cells, 2)
	}
	refJSON, ref10, ref11 := run(1)
	for _, par := range []int{2, 4} {
		js, g10, g11 := run(par)
		if !bytes.Equal(js, refJSON) {
			t.Errorf("par=%d: cell JSON diverged from sequential run", par)
		}
		if g10 != ref10 {
			t.Errorf("par=%d: Figure 10 table diverged:\n%s\nvs\n%s", par, g10, ref10)
		}
		if g11 != ref11 {
			t.Errorf("par=%d: Figure 11 table diverged", par)
		}
	}
}

func TestTable2ParallelByteIdentical(t *testing.T) {
	p := tinyParams()
	p.Cache = NewWorkloadCache()
	run := func(par int) ([]byte, string) {
		t.Helper()
		pp := p
		pp.Options.Parallelism = par
		cells, err := Table2Ctx(context.Background(), pp, 1, []scene.Benchmark{scene.FairyForest})
		if err != nil {
			t.Fatalf("par=%d: %v", par, err)
		}
		js, err := json.Marshal(cells)
		if err != nil {
			t.Fatal(err)
		}
		return js, RenderTable2(cells, 1)
	}
	refJSON, refTable := run(1)
	js, tbl := run(4)
	if !bytes.Equal(js, refJSON) {
		t.Error("par=4: cell JSON diverged from sequential run")
	}
	if tbl != refTable {
		t.Errorf("par=4: Table 2 diverged:\n%s\nvs\n%s", tbl, refTable)
	}
}

// Observed-mode runs attach the full metrics registry; its snapshot
// must also be schedule-independent when the simulations run as
// concurrent scheduler cells.
func TestObservedMetricsParallelIdentical(t *testing.T) {
	p := tinyParams()
	p.Options.Observe = true
	p.Cache = NewWorkloadCache()
	w, err := p.workload(scene.ConferenceRoom)
	if err != nil {
		t.Fatal(err)
	}
	type probe struct {
		policy string
		bounce int
	}
	probes := []probe{
		{"aila", 1}, {"aila", 2},
		{"drs", 1}, {"drs", 2},
	}
	run := func(par int) [][]byte {
		t.Helper()
		grid := make([]cellsched.Cell[[]byte], len(probes))
		for i, pr := range probes {
			grid[i] = cellsched.Cell[[]byte]{
				Key: fmt.Sprintf("observed/%s/B%d", pr.policy, pr.bounce),
				Run: func() ([]byte, error) {
					res, err := harness.RunNamed(pr.policy, w.BounceRays(pr.bounce, p), w.Data, p.Options)
					if err != nil {
						return nil, err
					}
					return json.Marshal(res.Metrics)
				},
			}
		}
		out, err := cellsched.Run(grid, par)
		if err != nil {
			t.Fatalf("par=%d: %v", par, err)
		}
		return out
	}
	ref := run(1)
	got := run(4)
	for i := range probes {
		if !bytes.Equal(got[i], ref[i]) {
			t.Errorf("%s B%d: observed metrics snapshot diverged between par=1 and par=4",
				probes[i].policy, probes[i].bounce)
		}
	}
}

// A suite run sharing one WorkloadCache must build each scene's
// render+BVH+traces exactly once across Figure2/Figure8/Table2/Figure10.
func TestSuiteSharedCacheBuildsOncePerScene(t *testing.T) {
	p := tinyParams()
	p.Bounces = 1
	p.Options.Parallelism = 4
	p.Cache = NewWorkloadCache()
	scenes := []scene.Benchmark{scene.ConferenceRoom, scene.FairyForest}

	if _, err := Figure2Ctx(context.Background(), p); err != nil {
		t.Fatal(err)
	}
	if _, err := Figure8Ctx(context.Background(), p, 1, scenes); err != nil {
		t.Fatal(err)
	}
	if _, err := Table2Ctx(context.Background(), p, 1, scenes); err != nil {
		t.Fatal(err)
	}
	if _, err := Figure10Ctx(context.Background(), p, 1, scenes); err != nil {
		t.Fatal(err)
	}

	st := p.Cache.Stats()
	if st.Builds != int64(len(scenes)) {
		t.Errorf("builds = %d, want %d (one per scene across the whole suite)",
			st.Builds, len(scenes))
	}
	if st.Misses != st.Builds {
		t.Errorf("misses = %d, builds = %d; every miss must build exactly once",
			st.Misses, st.Builds)
	}
	if st.Hits == 0 {
		t.Error("no cache hits despite four runners sharing the cache")
	}
}
