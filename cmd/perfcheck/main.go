// Command perfcheck compares `go test -bench -benchmem` output against
// the committed baseline in BENCH_simtcore.json and enforces the CI
// perf budget: an allocation-count regression beyond the tolerance
// fails (allocs/op is deterministic for these benchmarks, so the gate
// is noise-free); wall-clock deltas are printed but advisory-only,
// because shared runners jitter. It is a stdlib-only stand-in for
// benchstat, which this module deliberately does not depend on.
//
// Usage:
//
//	go test -run '^$' -bench BenchmarkFigure10Par1 -benchmem -count 3 . | tee out.txt
//	go run ./cmd/perfcheck -baseline BENCH_simtcore.json out.txt [more.txt...]
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
)

// metrics is one benchmark's recorded (or measured) per-op numbers.
type metrics struct {
	NsOp     float64 `json:"ns_op"`
	BOp      float64 `json:"b_op"`
	AllocsOp float64 `json:"allocs_op"`
}

// baseline mirrors the comparator-relevant part of BENCH_simtcore.json:
// "after" holds the committed post-SoA medians that CI measures against.
type baseline struct {
	After map[string]metrics `json:"after"`
}

func main() {
	baselinePath := flag.String("baseline", "BENCH_simtcore.json", "committed baseline JSON (its \"after\" block is the reference)")
	maxAllocRegress := flag.Float64("max-alloc-regress", 0.10, "fail when allocs/op exceeds baseline by more than this fraction")
	flag.Parse()
	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "perfcheck: no benchmark output files given")
		os.Exit(2)
	}

	raw, err := os.ReadFile(*baselinePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfcheck:", err)
		os.Exit(2)
	}
	var base baseline
	if err := json.Unmarshal(raw, &base); err != nil {
		fmt.Fprintf(os.Stderr, "perfcheck: %s: %v\n", *baselinePath, err)
		os.Exit(2)
	}
	if len(base.After) == 0 {
		fmt.Fprintf(os.Stderr, "perfcheck: %s has no \"after\" block\n", *baselinePath)
		os.Exit(2)
	}

	samples := map[string][]metrics{}
	for _, path := range flag.Args() {
		f, err := os.Open(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfcheck:", err)
			os.Exit(2)
		}
		parseBench(f, samples)
		f.Close()
	}
	if len(samples) == 0 {
		fmt.Fprintln(os.Stderr, "perfcheck: no Benchmark lines found in input")
		os.Exit(2)
	}

	failed := false
	names := make([]string, 0, len(samples))
	for n := range samples {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, name := range names {
		got := median(samples[name])
		want, ok := base.After[name]
		if !ok {
			fmt.Printf("%-16s no baseline entry; skipped\n", name)
			continue
		}
		wallDelta := ratioDelta(got.NsOp, want.NsOp)
		fmt.Printf("%-16s wall %s vs %s (%+.1f%%, advisory)\n",
			name, fmtNs(got.NsOp), fmtNs(want.NsOp), 100*wallDelta)
		allocDelta := ratioDelta(got.AllocsOp, want.AllocsOp)
		fmt.Printf("%-16s allocs/op %.0f vs %.0f (%+.1f%%, budget %+.0f%%)\n",
			"", got.AllocsOp, want.AllocsOp, 100*allocDelta, 100**maxAllocRegress)
		if allocDelta > *maxAllocRegress {
			fmt.Printf("%-16s FAIL: allocation regression exceeds budget\n", "")
			failed = true
		}
	}
	if failed {
		os.Exit(1)
	}
	fmt.Println("perfcheck: within budget")
}

// parseBench extracts per-op metrics from `go test -bench` output lines
// ("BenchmarkFoo-8  3  123 ns/op  45 B/op  6 allocs/op"); the -N
// GOMAXPROCS suffix is stripped so names match the baseline keys.
func parseBench(f *os.File, out map[string][]metrics) {
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		name := strings.TrimPrefix(fields[0], "Benchmark")
		if i := strings.LastIndex(name, "-"); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		var m metrics
		seen := false
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			switch fields[i+1] {
			case "ns/op":
				m.NsOp, seen = v, true
			case "B/op":
				m.BOp, seen = v, true
			case "allocs/op":
				m.AllocsOp, seen = v, true
			}
		}
		if seen {
			out[name] = append(out[name], m)
		}
	}
}

// median reduces repeated -count runs field-wise, so one outlier run
// cannot fail (or pass) the gate.
func median(ms []metrics) metrics {
	pick := func(get func(metrics) float64) float64 {
		vs := make([]float64, len(ms))
		for i, m := range ms {
			vs[i] = get(m)
		}
		sort.Float64s(vs)
		n := len(vs)
		if n%2 == 1 {
			return vs[n/2]
		}
		return (vs[n/2-1] + vs[n/2]) / 2
	}
	return metrics{
		NsOp:     pick(func(m metrics) float64 { return m.NsOp }),
		BOp:      pick(func(m metrics) float64 { return m.BOp }),
		AllocsOp: pick(func(m metrics) float64 { return m.AllocsOp }),
	}
}

// ratioDelta returns (got-want)/want, treating a zero baseline as
// regressed only when got is nonzero.
func ratioDelta(got, want float64) float64 {
	if want == 0 {
		if got == 0 {
			return 0
		}
		return 1
	}
	return (got - want) / want
}

func fmtNs(ns float64) string {
	switch {
	case ns >= 1e9:
		return fmt.Sprintf("%.2fs", ns/1e9)
	case ns >= 1e6:
		return fmt.Sprintf("%.2fms", ns/1e6)
	case ns >= 1e3:
		return fmt.Sprintf("%.2fµs", ns/1e3)
	}
	return fmt.Sprintf("%.0fns", ns)
}
