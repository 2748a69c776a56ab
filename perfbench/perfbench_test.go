package main

import (
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"testing"
)

func TestWindowsFollowTheSeed(t *testing.T) {
	const n, size = 76_800, 48_000
	a, err := windowStart(7, "conference/B1", n, size)
	if err != nil {
		t.Fatal(err)
	}
	if b, _ := windowStart(7, "conference/B1", n, size); b != a {
		t.Fatalf("same seed gave windows at %d and %d", a, b)
	}
	differs := false
	for seed := uint64(8); seed < 12; seed++ {
		if b, _ := windowStart(seed, "conference/B1", n, size); b != a {
			differs = true
		}
	}
	if !differs {
		t.Fatal("five seeds all gave the same window")
	}
	if _, err := windowStart(7, "plants/B3", size-1, size); err == nil {
		t.Fatal("a stream shorter than the window was accepted")
	}
}

func mixBodies(seed uint64) []string {
	var out []string
	for _, j := range jobMix(seed) {
		out = append(out, string(j.body))
	}
	return out
}

func TestJobMixFollowsTheSeed(t *testing.T) {
	a := mixBodies(3)
	if b := mixBodies(3); !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different job mixes")
	}
	if b := mixBodies(4); reflect.DeepEqual(a, b) {
		t.Fatal("different seeds gave the same job mix")
	}
}

func TestJobMixComposition(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		jobs := jobMix(seed)
		var counts [len(kindNames)]int
		specs := make(map[string]bool)
		for i, j := range jobs {
			counts[j.kind]++
			if j.kind == kindRepeat {
				if j.orig >= i || jobs[j.orig].kind == kindRepeat || string(jobs[j.orig].body) != string(j.body) {
					t.Fatalf("seed %d: job %d does not repeat an earlier first submission", seed, i)
				}
				continue
			}
			if j.orig != i || specs[string(j.body)] {
				t.Fatalf("seed %d: first submission %d is not a new spec", seed, i)
			}
			specs[string(j.body)] = true
		}
		want := [len(kindNames)]int{kindFresh: 90, kindObserved: 56, kindRepeat: 56, kindMiss: 22}
		if counts != want || len(jobs) != 224 {
			t.Fatalf("seed %d: %d jobs by kind %v, want 224 by kind %v", seed, len(jobs), counts, want)
		}
	}
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	xs := make([]float64, 199)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if _, ok := percentile(xs, 0.95); ok {
		t.Fatal("p95 reported from 199 samples, which leave 9 beyond it")
	}
	xs = append(xs, 200)
	v, ok := percentile(xs, 0.95)
	if !ok || v != 190 {
		t.Fatalf("p95 of 1..200 = %v, %v; want 190, true", v, ok)
	}
	if _, ok := percentile(xs[:20], 0.5); !ok {
		t.Fatal("p50 of 20 samples leaves 10 beyond it and must be reported")
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Fatalf("median = %v, want 2.5", got)
	}
}

func TestSelfTimeWithOverlappingChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "grid", Start: 0, End: 100},
		// Two children run in parallel and overlap over [30, 50]; a
		// third spills past the parent's end.
		{ID: 2, Parent: 1, Name: "cell", Start: 10, End: 50},
		{ID: 3, Parent: 1, Name: "cell", Start: 30, End: 70},
		{ID: 4, Parent: 1, Name: "cell", Start: 90, End: 120},
		{ID: 5, Parent: 2, Name: "run", Start: 15, End: 45},
	}
	self := selfTimes(spans)
	// The union of the children inside [0, 100] is [10, 70] + [90, 100].
	if got, want := self["grid"], 30e-9; !near(got, want) {
		t.Errorf("grid self time %v, want %v", got, want)
	}
	// cell 2 loses the 30 its child covers; cells 3 and 4 have none.
	if got, want := self["cell"], (10+40+30)*1e-9; !near(got, want) {
		t.Errorf("cell self time %v, want %v", got, want)
	}
	if got := tailTime(0, 100, spans[1:4], 2); got != 50 {
		t.Errorf("tail %d, want 50: two cells last ran together until 50", got)
	}
}

func near(a, b float64) bool { return a-b < 1e-15 && b-a < 1e-15 }

func TestBenchmarkJSONMatchesTheProgram(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if want := workloadNames(); !reflect.DeepEqual(names, want) {
		t.Errorf("BENCHMARK.json workloads %v, program has %v", names, want)
	}
	if !reflect.DeepEqual(bj.EndToEnd, endToEndDefs()) {
		t.Errorf("BENCHMARK.json end_to_end differs from endToEndDefs")
	}
	if !reflect.DeepEqual(bj.PerLayer, perLayerDefs()) {
		t.Errorf("BENCHMARK.json per_layer differs from perLayerDefs")
	}
}
