package srcgraph

import (
	"fmt"
	"go/ast"
	"sort"
)

func sprintf(format string, args ...any) string { return fmt.Sprintf(format, args...) }

// CheckHazards builds the call graph and reports every determinism
// hazard:
//
//   - map-range, wallclock and global-rand fire in any function
//     reachable from a determinism root (engine entry points, harness
//     Run* API, and every hot function — per-cycle code is on the
//     determinism path by construction);
//   - hotpath-alloc fires in any function reachable from a
//     //drslint:hotpath root;
//   - goroutine-captured-write and shared-l2 fire in any function of
//     the module, reachable or not: a race or a schedule-ordered L2 is
//     wrong wherever the goroutine runs.
//
// A line-level //drslint:allow suppresses the named checks on its line
// and the line below; one in a function's doc comment suppresses them
// for the whole function.
func CheckHazards(prog *Program) []Finding {
	g := BuildGraph(prog)
	return g.findings()
}

// moduleWide reports whether a check fires without a root reaching
// the function.
func moduleWide(check string) bool {
	return check == CheckGoCapturedWrite || check == CheckSharedL2
}

func (g *Graph) findings() []Finding {
	hot := g.propagate(func(n *funcNode) bool { return n.hotRoot })
	// Hot code runs every simulated cycle inside the engine: it is on
	// the determinism path whether or not an engine entry point
	// reaches it in the static graph.
	det := g.propagate(func(n *funcNode) bool { return n.detRoot || n.hotRoot })

	// Line-level suppressions, collected lazily per file.
	allowCache := make(map[*ast.File]lineAllows)
	allows := func(f *ast.File) lineAllows {
		m, ok := allowCache[f]
		if !ok {
			m = allowsByLine(f, g.prog.Fset)
			allowCache[f] = m
		}
		return m
	}

	var out []Finding
	for _, id := range g.order {
		n := g.nodes[id]
		if len(n.hazards) == 0 {
			continue
		}
		sort.Slice(n.hazards, func(i, j int) bool { return n.hazards[i].pos < n.hazards[j].pos })
		for _, h := range n.hazards {
			var chain []string
			if !moduleWide(h.check) {
				via := det
				if h.check == CheckHotPathAlloc {
					via = hot
				}
				if _, reached := via[id]; !reached {
					continue
				}
				chain = via.chain(id)
			}
			if n.allow[h.check] {
				continue
			}
			file, line := g.prog.Rel(h.pos)
			if allows(n.file).suppresses(line, h.check) {
				continue
			}
			f := Finding{File: file, Line: line, Check: h.check, Func: id, Chain: chain, Msg: h.msg}
			if chain != nil {
				f.Root = chain[0]
			}
			out = append(out, f)
		}
	}
	SortFindings(out)
	return out
}

// Roots returns the ids of the graph's determinism and hot roots with
// the rule that made each one a root — drslint -json exposes this so a
// loader regression that silently drops every root is visible.
func (g *Graph) Roots() (det, hot map[string]string) {
	det = make(map[string]string)
	hot = make(map[string]string)
	for _, id := range g.order {
		n := g.nodes[id]
		if n.hotRoot {
			hot[id] = n.rootWhy
		}
		if n.detRoot {
			det[id] = n.rootWhy
		}
	}
	return det, hot
}

// NumFuncs reports the number of functions in the graph (loader
// health: zero or near-zero means the pass silently checked nothing).
func (g *Graph) NumFuncs() int { return len(g.nodes) }
