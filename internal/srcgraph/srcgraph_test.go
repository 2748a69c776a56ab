package srcgraph

import (
	"fmt"
	"sort"
	"strings"
	"testing"
)

// The specimen module under testdata is a self-contained miniature of
// the repo: an engine package whose import path matches the det-root
// rules, harness/hot/conc packages holding one function per hazard
// case, a content-addressed spec with deliberate drift, and a metrics
// registry with one orphaned struct. Every analyzer must fire on it —
// these are the negative tests CI's zero-findings budget leans on: a
// loader regression that silently empties the call graph fails here,
// not as a suspiciously green lint run.

const specimenDir = "testdata/specimen"

func loadSpecimen(t *testing.T) *Program {
	t.Helper()
	prog, err := Load(specimenDir)
	if err != nil {
		t.Fatalf("load specimen: %v", err)
	}
	return prog
}

func byCheck(fs []Finding, check string) []Finding {
	var out []Finding
	for _, f := range fs {
		if f.Check == check {
			out = append(out, f)
		}
	}
	return out
}

// TestInterproceduralHazards is the acceptance demonstration: a
// map-range and a hot-path alloc in untagged helpers two calls below
// their roots are flagged, each with its witness chain.
func TestInterproceduralHazards(t *testing.T) {
	prog := loadSpecimen(t)
	var fs []Finding
	for _, f := range CheckHazards(prog) {
		if f.File == "internal/simt/engine.go" {
			fs = append(fs, f)
		}
	}

	mr := byCheck(fs, CheckMapRange)
	if len(mr) != 1 {
		t.Fatalf("want exactly 1 map-range finding, got %d: %v", len(mr), mr)
	}
	wantChain := []string{
		"specimen/internal/simt.RunGPU",
		"specimen/internal/simt.helperA",
		"specimen/internal/simt.helperB",
	}
	if got := mr[0].Chain; strings.Join(got, " ") != strings.Join(wantChain, " ") {
		t.Errorf("map-range chain = %v, want %v", got, wantChain)
	}
	if mr[0].File != "internal/simt/engine.go" {
		t.Errorf("map-range file = %q", mr[0].File)
	}

	ha := byCheck(fs, CheckHotPathAlloc)
	if len(ha) != 1 {
		t.Fatalf("want exactly 1 hotpath-alloc finding, got %d: %v", len(ha), ha)
	}
	wantChain = []string{
		"specimen/internal/simt.stepOnce",
		"specimen/internal/simt.mid",
		"specimen/internal/simt.leafAlloc",
	}
	if got := ha[0].Chain; strings.Join(got, " ") != strings.Join(wantChain, " ") {
		t.Errorf("hotpath-alloc chain = %v, want %v", got, wantChain)
	}

	if wc := byCheck(fs, CheckWallClock); len(wc) != 1 || wc[0].Func != "specimen/internal/simt.stampNow" {
		t.Errorf("want 1 wallclock finding in stampNow, got %v", wc)
	}
	if gr := byCheck(fs, CheckGlobalRand); len(gr) != 1 || gr[0].Func != "specimen/internal/simt.jitter" {
		t.Errorf("want 1 global-rand finding in jitter, got %v", gr)
	}

	// The line-allowed range in sortedTotal must be suppressed even
	// though sortedTotal is reachable from the root.
	for _, f := range fs {
		if f.Func == "specimen/internal/simt.sortedTotal" {
			t.Errorf("suppressed range in sortedTotal still reported: %v", f)
		}
	}
}

// marker is one expected finding, from a "// want <check>..." comment.
type marker struct {
	file  string
	line  int
	check string
}

func (m marker) String() string { return fmt.Sprintf("%s:%d %s", m.file, m.line, m.check) }

func findingKey(f Finding) string { return marker{f.File, f.Line, f.Check}.String() }

// wantMarkers collects the specimen's "// want" comments, one marker
// per expected finding.
func wantMarkers(prog *Program) []marker {
	var out []marker
	for _, pkg := range prog.Pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					rest, ok := strings.CutPrefix(c.Text, "// want ")
					if !ok {
						continue
					}
					file, line := prog.Rel(c.Pos())
					for _, check := range strings.Fields(rest) {
						out = append(out, marker{file, line, check})
					}
				}
			}
		}
	}
	return out
}

// TestHazardCases pins every hazard check case by case. Each case names
// specimen functions (relative to specimen/internal/) and how many
// findings they must produce; the findings inside them must match their
// "// want" markers line for line, so a positive case cannot go quiet
// and a negative case cannot fire. Across the whole specimen, too,
// findings and markers must agree exactly.
func TestHazardCases(t *testing.T) {
	prog := loadSpecimen(t)
	g := BuildGraph(prog)
	fs := g.findings()
	wants := wantMarkers(prog)

	var got, want []string
	for _, f := range fs {
		got = append(got, findingKey(f))
	}
	for _, w := range wants {
		want = append(want, w.String())
	}
	sort.Strings(got)
	sort.Strings(want)
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("specimen findings:\n%s\nwant markers:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}

	cases := []struct {
		name string
		want int
		fns  []string
	}{
		{"MapRangeLocalMake", 1, []string{"harness.RunMapRangeLocalMake"}},
		{"MapRangeStructField", 1, []string{"harness.RunMapRangeStructField"}},
		{"MapRangeAllowed", 0, []string{"harness.RunMapRangeAllowed"}},
		{"SliceRangeNotFlagged", 0, []string{"harness.RunSliceRange"}},
		{"WallClock", 1, []string{"simt.stampNow"}},
		{"WallClockTimerSurface", 4, []string{"harness.RunWallClockTimerSurface"}},
		{"GlobalRand", 1, []string{"harness.RunGlobalRand"}},
		{"SeededRandNotFlagged", 0, []string{"harness.RunSeededRand"}},
		{"GoroutineCapturedWrite", 1, []string{"conc.capturedWrite"}},
		{"GoroutineIndexWriteNotFlagged", 0, []string{"conc.indexWrite"}},
		{"GoroutineLocalWriteNotFlagged", 0, []string{"conc.localWrite"}},
		{"SharedL2ConstructorInConcurrentFile", 2, []string{"conc.runShared"}},
		{"SharedL2AccessOnStructField", 1, []string{"conc.(*device).run"}},
		{"SharedL2SequentialFileNotFlagged", 0, []string{"conc.miss"}},
		{"SharedL2Allowed", 0, []string{"conc.runAllowed"}},
		{"SharedL2OrderedPortNotFlagged", 0, []string{"conc.runOrdered"}},
		{"SharedL2OtherPackageAccessNotFlagged", 0, []string{"conc.runOther"}},
		{"HotpathMapMake", 1, []string{"hot.resolveTargets"}},
		{"HotpathMapLiteral", 1, []string{"hot.mapLiteral"}},
		{"HotpathFreshSliceAppend", 2, []string{"hot.freshAppend"}},
		{"HotpathPooledResliceNotFlagged", 0, []string{"hot.(*warp).resolve"}},
		{"HotpathUntaggedFileNotFlagged", 0, []string{"hot.untagged"}},
		{"HotpathAllowed", 0, []string{"hot.launch"}},
		{"HotpathPlainMakeSliceNotFlagged", 0, []string{"hot.launchAll"}},
		{"HotpathFunctionGranular", 1, []string{"hot.step", "hot.setup"}},
		{"HotpathInBlockCommentInert", 0, []string{"hot.blockTagged"}},
		{"AllowMultipleChecksOneLine", 0, []string{"harness.RunAllowMultipleChecksOneLine"}},
		{"AllowTrailingOnStatementLine", 0, []string{"harness.RunAllowTrailingOnStatementLine"}},
		{"AllowReasonWithParenthetical", 1, []string{"harness.RunAllowReasonWithParenthetical"}},
		{"AllowInBlockCommentInert", 1, []string{"harness.RunAllowInBlockCommentInert"}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var got, want []string
			for _, fn := range c.fns {
				id := "specimen/internal/" + fn
				n := g.nodes[id]
				if n == nil {
					t.Fatalf("no specimen function %s", id)
				}
				file, from := prog.Rel(n.decl.Pos())
				_, to := prog.Rel(n.decl.End())
				for _, f := range fs {
					if f.Func == id {
						got = append(got, findingKey(f))
					}
				}
				for _, w := range wants {
					if w.file == file && w.line >= from && w.line <= to {
						want = append(want, w.String())
					}
				}
			}
			if len(want) != c.want {
				t.Fatalf("specimen marks %d findings in %v, the case expects %d: %v", len(want), c.fns, c.want, want)
			}
			sort.Strings(got)
			sort.Strings(want)
			if strings.Join(got, " | ") != strings.Join(want, " | ") {
				t.Errorf("findings %v, want %v", got, want)
			}
		})
	}
}

func TestSpecimenRoots(t *testing.T) {
	prog := loadSpecimen(t)
	g := BuildGraph(prog)
	det, hot := g.Roots()
	if why := det["specimen/internal/simt.RunGPU"]; why == "" {
		t.Errorf("RunGPU not a det root; det roots: %v", det)
	}
	if why := hot["specimen/internal/simt.stepOnce"]; !strings.Contains(why, "directive") {
		t.Errorf("stepOnce not a directive hot root; hot roots: %v", hot)
	}
	// The doc-comment directive must not promote the whole file.
	if _, ok := hot["specimen/internal/simt.helperA"]; ok {
		t.Error("helperA became a hot root from a doc-comment directive on stepOnce")
	}
}

func TestSpecHashDrift(t *testing.T) {
	prog := loadSpecimen(t)
	fs := CheckSpecHashDrift(prog)
	if len(fs) != 2 {
		t.Fatalf("want exactly 2 spec-hash findings, got %d: %v", len(fs), fs)
	}
	var jobSpec, fullSpec []Finding
	for _, f := range fs {
		if strings.Contains(f.Msg, "JobSpec") {
			jobSpec = append(jobSpec, f)
		}
		if strings.Contains(f.Msg, "FullSpec") {
			fullSpec = append(fullSpec, f)
		}
	}
	if len(jobSpec) != 1 || !strings.Contains(jobSpec[0].Msg, "Debug") {
		t.Errorf("want exactly 1 JobSpec finding naming Debug, got %v", jobSpec)
	}
	if len(fullSpec) != 1 || !strings.Contains(fullSpec[0].Msg, "Extra") {
		t.Errorf("want exactly 1 FullSpec finding naming Extra, got %v", fullSpec)
	}
}

func TestMetricsRegistration(t *testing.T) {
	prog := loadSpecimen(t)
	fs := CheckMetricsRegistration(prog)
	if len(fs) != 1 {
		t.Fatalf("want exactly 1 metrics-registration finding, got %d: %v", len(fs), fs)
	}
	if !strings.Contains(fs[0].Msg, "specimen/internal/stats.Orphan") {
		t.Errorf("finding does not name the orphan: %v", fs[0])
	}
}

// TestRealTreeClean locks the tentpole's green state: the shipped
// sources carry no unsuppressed graph findings, and the loader health
// counters prove the pass actually analyzed the module.
func TestRealTreeClean(t *testing.T) {
	prog, err := Load("../..", "./internal/...", "./cmd/...")
	if err != nil {
		t.Fatal(err)
	}
	g := BuildGraph(prog)
	if n := g.NumFuncs(); n < 500 {
		t.Errorf("suspiciously small call graph: %d funcs", n)
	}
	det, hot := g.Roots()
	if len(det) < 4 {
		t.Errorf("want >= 4 det roots (engine + harness entry points), got %v", det)
	}
	if len(hot) < 10 {
		t.Errorf("want >= 10 hot roots (per-cycle directives), got %v", hot)
	}
	if fs := Analyze(prog); len(fs) != 0 {
		t.Errorf("real tree has graph findings:\n%v", fs)
	}
}

// TestHotConeCoversPerCycleCallees pins the reason function-granular
// tags could replace the file tags: propagation covers the tagged
// functions' whole callee cones, including the memory hierarchy.
func TestHotConeCoversPerCycleCallees(t *testing.T) {
	prog, err := Load("../..", "./internal/...", "./cmd/...")
	if err != nil {
		t.Fatal(err)
	}
	g := BuildGraph(prog)
	hot := g.propagate(func(n *funcNode) bool { return n.hotRoot })
	for _, want := range []string{
		"repro/internal/simt.(*SMX).issueMem",
		"repro/internal/simt.(*SMX).resolve",
		"repro/internal/simt.(*warpState).retireLanes",
		"repro/internal/memsys.(*SMXMem).WarpAccessEx",
		"repro/internal/memsys.(*cache).access",
		"repro/internal/memsys.(*L2Port).Reset",
	} {
		if _, ok := hot[want]; !ok {
			t.Errorf("%s not hot-reachable", want)
		}
	}
}
