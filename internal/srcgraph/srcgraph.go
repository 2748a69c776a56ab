// Package srcgraph is the repo's determinism analysis. It type-checks
// the module (go/types over export data from the go build cache — no
// external dependencies), builds a static call graph over every
// package, marks the functions where the determinism contract is
// rooted, and propagates hazard facts along call edges. A map iteration
// in an untagged helper three calls below the engine loop is then a
// finding, not a blind spot.
//
// Three analyses share the loaded program:
//
//   - Determinism hazards (hazards.go): map-range, wallclock,
//     global-rand and hotpath-alloc sites are collected per function
//     with full type information (a range over a map-typed parameter is
//     seen as such), and reported when the enclosing function is
//     reachable from a determinism root (engine entry points, harness
//     Run* API, //drslint:hotpath functions) or — for allocation churn
//     — from a hot root. Each finding carries the witness call chain
//     from the root. goroutine-captured-write and shared-l2 sites are
//     reported in every function of the module, reachable or not.
//
//   - Spec-hash drift (speccheck.go): every struct with a Canonical
//     content-address encoder is cross-checked field by field against
//     what that encoder actually emits; a field that exists on the spec
//     but not in the encoding would merge distinct jobs under one
//     content address.
//
//   - Metrics registration (metricscheck.go): every struct that carries
//     `metrics:"..."` field tags must be reached by a RegisterStruct
//     call, directly or as a nested field of a registered struct;
//     otherwise the tags are dead annotation and the counters silently
//     never appear in snapshots.
//
// Roots and suppressions follow the directive grammar in
// directives.go. A function is a hot root when its doc comment carries
// //drslint:hotpath (a file-level tag marks every function in the
// file); a //drslint:allow directive suppresses a check on one line or,
// in a function's doc comment, for the whole function.
//
// This is a tripwire, not a proof: calls through plain function values
// cannot be resolved statically and interface calls are expanded by
// implements-based class-hierarchy analysis, which over- rather than
// under-approximates the cone.
package srcgraph

import (
	"fmt"
	"sort"
	"strings"
)

// Check identifiers, as named by //drslint:allow directives.
const (
	// CheckMapRange, CheckWallClock and CheckGlobalRand fire in the
	// determinism cone: map iteration, wall-clock reads and the
	// process-global RNG.
	CheckMapRange   = "map-range"
	CheckWallClock  = "wallclock"
	CheckGlobalRand = "global-rand"
	// CheckHotPathAlloc fires in the hot cone: a map allocation or the
	// append growth of a freshly allocated local slice.
	CheckHotPathAlloc = "hotpath-alloc"
	// CheckGoCapturedWrite fires module-wide: a go statement's function
	// literal assigns to a variable declared outside it.
	CheckGoCapturedWrite = "goroutine-captured-write"
	// CheckSharedL2 fires module-wide: memsys.NewL2 or a method of the
	// free-running memsys.L2 referenced in a file that spawns
	// goroutines. Concurrent code must use the ordered per-SMX ports.
	CheckSharedL2 = "shared-l2"
	// CheckSpecHash flags drift between a content-addressed spec struct
	// and its canonical encoder.
	CheckSpecHash = "spec-hash"
	// CheckMetricsReg flags metrics-tagged structs never reached by a
	// RegisterStruct call.
	CheckMetricsReg = "metrics-registration"
)

// Finding is one graph-pass diagnostic.
type Finding struct {
	// File is the module-relative path of the hazard site.
	File string `json:"file"`
	// Line is the 1-based source line.
	Line int `json:"line"`
	// Check classifies the diagnostic (see the Check* constants).
	Check string `json:"check"`
	// Func is the fully qualified function containing the hazard
	// (empty for the struct-level completeness checks).
	Func string `json:"func,omitempty"`
	// Root is the determinism or hot root that reaches Func.
	Root string `json:"root,omitempty"`
	// Chain is the witness call path from Root to Func, inclusive.
	Chain []string `json:"chain,omitempty"`
	// Msg is the human-readable diagnostic.
	Msg string `json:"msg"`
}

func (f Finding) String() string {
	s := fmt.Sprintf("%s:%d: %s: %s", f.File, f.Line, f.Check, f.Msg)
	if len(f.Chain) > 1 {
		s += fmt.Sprintf(" (reached via %s)", strings.Join(f.Chain, " -> "))
	}
	return s
}

// Analyze runs every graph check over a loaded program and returns the
// findings sorted by file, line and check.
func Analyze(prog *Program) []Finding {
	var all []Finding
	all = append(all, CheckHazards(prog)...)
	all = append(all, CheckSpecHashDrift(prog)...)
	all = append(all, CheckMetricsRegistration(prog)...)
	SortFindings(all)
	return all
}

// SortFindings orders findings by file, line, check and message.
func SortFindings(fs []Finding) {
	sort.Slice(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Check != b.Check {
			return a.Check < b.Check
		}
		return a.Msg < b.Msg
	})
}
