// Command drslint is the repo's determinism and kernel-program linter.
// It runs two independent passes and exits nonzero if either finds
// anything:
//
//   - Program verification (-mode prog): every registered kernel
//     variant is built against every benchmark scene, statically
//     verified (successor ranges, reconvergence points vs the computed
//     immediate post-dominators, reachability, memory and operand
//     budgets, architecture capabilities), and then dynamically
//     explored — Step is driven from the entry block and every observed
//     transition and memory emission is cross-checked against the
//     declared program.
//
//   - Graph analysis (-mode graph): the type-aware whole-program
//     determinism analysis (internal/srcgraph) over internal/ + cmd/ —
//     map-range, wall-clock, global-RNG and hot-path allocation
//     findings for any function reachable from an engine/harness entry
//     point or //drslint:hotpath root, goroutine captured writes and
//     shared-L2 use anywhere in the module, plus the spec-hash drift
//     and metrics-registration completeness verifiers.
//
// Usage:
//
//	drslint [-mode all|prog|graph] [-json] [-tris N] [-steps N] [-slots N]
//
// drslint takes no positional arguments. With -json the findings are
// emitted as one machine-readable object.
//
// The exit code is a bitmask identifying which checks failed: 1 =
// kernel-program findings, 4 = determinism hazards, 8 = spec-hash
// drift, 16 = metrics-registration gaps. Usage errors and internal
// errors (load or build failures) exit 32. Bit 2 is retired and stays
// unused, so a script that still tests it for the deleted syntactic
// source lint never reads another check's findings there.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/bvh"
	"repro/internal/kernels"
	"repro/internal/progcheck"
	"repro/internal/scene"
	"repro/internal/simt"
	"repro/internal/srcgraph"
)

// Exit-code bits, one per check family; the process exit status is the
// OR of every bit whose check produced findings. The values are part of
// the CLI contract, so they are spelled out rather than counted by iota;
// 2 is retired.
const (
	exitProg        = 1  // kernel program verification/exploration
	exitGraphHazard = 4  // determinism hazards
	exitSpecHash    = 8  // spec-hash drift
	exitMetricsReg  = 16 // metrics-registration gaps
	exitInternal    = 32 // load/build/usage failure
)

// kernelVariant is one (name, caps, builder) row of the registry. The
// builder constructs the kernel with verification disabled — drslint
// reports findings itself rather than letting MustVerify panic.
type kernelVariant struct {
	name  string
	caps  progcheck.Caps
	build func(data *kernels.SceneData, pool *kernels.Pool, slots int) simt.Kernel
}

var variants = []kernelVariant{
	{"aila", progcheck.Caps{}, func(d *kernels.SceneData, p *kernels.Pool, n int) simt.Kernel {
		return kernels.NewAila(d, p, n, kernels.AilaConfig{Speculative: true, SkipVerify: true})
	}},
	{"aila-nospec", progcheck.Caps{}, func(d *kernels.SceneData, p *kernels.Pool, n int) simt.Kernel {
		return kernels.NewAila(d, p, n, kernels.AilaConfig{SkipVerify: true})
	}},
	{"aila-anyhit", progcheck.Caps{}, func(d *kernels.SceneData, p *kernels.Pool, n int) simt.Kernel {
		return kernels.NewAila(d, p, n, kernels.AilaConfig{Speculative: true, AnyHit: true, SkipVerify: true})
	}},
	{"whileif", progcheck.Caps{Gate: true, CtrlTag: true}, func(d *kernels.SceneData, p *kernels.Pool, n int) simt.Kernel {
		return kernels.NewWhileIfConfigured(d, p, n, kernels.WhileIfConfig{SkipVerify: true})
	}},
	{"whileif-anyhit", progcheck.Caps{Gate: true, CtrlTag: true}, func(d *kernels.SceneData, p *kernels.Pool, n int) simt.Kernel {
		return kernels.NewWhileIfConfigured(d, p, n, kernels.WhileIfConfig{AnyHit: true, SkipVerify: true})
	}},
}

// report is the -json output shape.
type report struct {
	Program []progcheck.Finding `json:"program"`
	Graph   *graphReport        `json:"graph,omitempty"`
	// Explored summarizes dynamic coverage per kernel x scene, so a
	// clean run can be judged for how much it actually exercised.
	Explored []exploreSummary `json:"explored,omitempty"`
}

// graphReport carries the graph pass's findings plus enough loader
// health (function count, root inventory) that a regression silently
// emptying the call graph is visible in CI diffs, not just a
// suspiciously green run.
type graphReport struct {
	Funcs    int                `json:"funcs"`
	DetRoots map[string]string  `json:"det_roots"`
	HotRoots map[string]string  `json:"hot_roots"`
	Findings []srcgraph.Finding `json:"findings"`
}

type exploreSummary struct {
	Kernel string `json:"kernel"`
	Scene  string `json:"scene"`
	Steps  int    `json:"steps"`
	Blocks int    `json:"blocks"`
	Edges  int    `json:"edges"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its arguments and output streams injected; it
// returns the process exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("drslint", flag.ContinueOnError)
	fl.SetOutput(stderr)
	var (
		mode    = fl.String("mode", "all", "which passes to run: all, prog (kernel programs), or graph (determinism analysis)")
		jsonOut = fl.Bool("json", false, "emit findings as a single JSON object")
		tris    = fl.Int("tris", 2000, "triangle budget per benchmark scene for program exploration")
		steps   = fl.Int("steps", 0, "total Step budget per kernel x scene exploration (0 = progcheck default)")
		slots   = fl.Int("slots", 256, "kernel slots (threads) to build and drive per exploration")
	)
	if err := fl.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return exitInternal
	}
	if fl.NArg() > 0 {
		fmt.Fprintf(stderr, "drslint: unexpected argument %q; drslint takes no positional arguments\n", fl.Arg(0))
		fl.Usage()
		return exitInternal
	}
	if *mode != "all" && *mode != "prog" && *mode != "graph" {
		fmt.Fprintf(stderr, "drslint: unknown -mode %q; valid: all, prog, graph\n", *mode)
		return exitInternal
	}

	var rep report
	exit := 0

	if *mode == "all" || *mode == "prog" {
		progFindings, summaries, err := runProg(*tris, *steps, *slots)
		if err != nil {
			fmt.Fprintln(stderr, "drslint:", err)
			return exitInternal
		}
		rep.Program = progFindings
		rep.Explored = summaries
		if len(progFindings) > 0 {
			exit |= exitProg
		}
	}

	if *mode == "all" || *mode == "graph" {
		gr, bits, err := runGraph()
		if err != nil {
			fmt.Fprintln(stderr, "drslint:", err)
			return exitInternal
		}
		rep.Graph = gr
		exit |= bits
	}

	if *jsonOut {
		// Stable shape for machine consumers: empty arrays, not null.
		if rep.Program == nil {
			rep.Program = []progcheck.Finding{}
		}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fmt.Fprintln(stderr, "drslint:", err)
			return exitInternal
		}
		return exit
	}
	for _, f := range rep.Program {
		fmt.Fprintln(stdout, f.String())
	}
	if rep.Graph != nil {
		for _, f := range rep.Graph.Findings {
			fmt.Fprintln(stdout, f.String())
		}
	}
	if exit == 0 {
		switch {
		case rep.Graph != nil && *mode == "graph":
			fmt.Fprintf(stdout, "drslint: clean (graph: %d funcs, %d det roots, %d hot roots)\n",
				rep.Graph.Funcs, len(rep.Graph.DetRoots), len(rep.Graph.HotRoots))
		case rep.Graph != nil:
			fmt.Fprintf(stdout, "drslint: clean (%d kernel/scene explorations; graph: %d funcs, %d det roots, %d hot roots)\n",
				len(rep.Explored), rep.Graph.Funcs, len(rep.Graph.DetRoots), len(rep.Graph.HotRoots))
		default:
			fmt.Fprintf(stdout, "drslint: clean (%d kernel/scene explorations)\n", len(rep.Explored))
		}
	}
	return exit
}

// runGraph loads the module, runs the whole-program analyses, and maps
// each finding onto its exit-code bit.
func runGraph() (*graphReport, int, error) {
	prog, err := srcgraph.Load(".", "./internal/...", "./cmd/...")
	if err != nil {
		return nil, 0, fmt.Errorf("graph load: %w", err)
	}
	g := srcgraph.BuildGraph(prog)
	det, hot := g.Roots()
	gr := &graphReport{
		Funcs:    g.NumFuncs(),
		DetRoots: det,
		HotRoots: hot,
		Findings: srcgraph.Analyze(prog),
	}
	if gr.Findings == nil {
		gr.Findings = []srcgraph.Finding{}
	}
	bits := 0
	for _, f := range gr.Findings {
		switch f.Check {
		case srcgraph.CheckSpecHash:
			bits |= exitSpecHash
		case srcgraph.CheckMetricsReg:
			bits |= exitMetricsReg
		default:
			bits |= exitGraphHazard
		}
	}
	return gr, bits, nil
}

// runProg verifies and explores every kernel variant against every
// benchmark scene.
func runProg(tris, stepBudget, slots int) ([]progcheck.Finding, []exploreSummary, error) {
	var findings []progcheck.Finding
	var summaries []exploreSummary
	for _, b := range scene.Benchmarks {
		sc := scene.Generate(b, tris)
		bv, err := bvh.Build(sc.Tris, bvh.DefaultOptions())
		if err != nil {
			return nil, nil, fmt.Errorf("bvh %s: %w", b, err)
		}
		data := kernels.NewSceneData(bv)
		rays := scene.ProbeRays(sc, slots)
		for _, v := range variants {
			pool := &kernels.Pool{Rays: rays}
			k := v.build(data, pool, slots)
			name := v.name + "@" + b.String()
			findings = append(findings, progcheck.Verify(name, k, v.caps)...)
			fs, cov := progcheck.Explore(name, k, progcheck.ExploreConfig{
				MaxTotalSteps: stepBudget,
				Slots:         slots,
			})
			findings = append(findings, fs...)
			summaries = append(summaries, exploreSummary{
				Kernel: v.name, Scene: b.String(),
				Steps: cov.Steps, Blocks: cov.BlocksVisited, Edges: cov.EdgesObserved,
			})
		}
	}
	return findings, summaries, nil
}
