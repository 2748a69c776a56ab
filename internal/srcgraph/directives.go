package srcgraph

import (
	"go/ast"
	"go/token"
	"strings"
)

// The //drslint directive grammar. Directives are line comments only —
// a directive quoted inside a /* */ block is inert.
//
//   - //drslint:hotpath marks per-cycle code: in a function's doc
//     comment it makes that function a hot root; as a free-standing
//     comment it makes every function in the file one.
//   - //drslint:allow <check>... -- <reason> suppresses the named
//     checks on its own line and the line below it; in a function's doc
//     comment it suppresses them for the whole function. Everything
//     after the first "--" is free text.
const (
	hotpathDirective = "//drslint:hotpath"
	allowDirective   = "//drslint:allow "
)

// isHotpathDirective reports whether a comment is the hotpath tag.
func isHotpathDirective(text string) bool {
	return text == hotpathDirective || strings.HasPrefix(text, hotpathDirective+" ")
}

// allowedChecks parses a //drslint:allow comment into the check names
// it suppresses; ok is false when the comment is not an allow directive.
func allowedChecks(text string) (checks []string, ok bool) {
	rest, ok := strings.CutPrefix(text, allowDirective)
	if !ok {
		return nil, false
	}
	rest, _, _ = strings.Cut(rest, "--")
	return strings.Fields(rest), true
}

// allowHint renders the suppression comment a finding's message
// suggests.
func allowHint(check, why string) string {
	return strings.TrimSpace(allowDirective) + " " + check + " -- " + why
}

// lineAllows maps a source line to the checks a //drslint:allow
// directive on that line names.
type lineAllows map[int]map[string]bool

// allowsByLine collects every line-level //drslint:allow directive in a
// file.
func allowsByLine(f *ast.File, fset *token.FileSet) lineAllows {
	allows := make(lineAllows)
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			checks, ok := allowedChecks(c.Text)
			if !ok {
				continue
			}
			line := fset.Position(c.Pos()).Line
			if allows[line] == nil {
				allows[line] = make(map[string]bool)
			}
			for _, name := range checks {
				allows[line][name] = true
			}
		}
	}
	return allows
}

// suppresses reports whether a directive on the finding's line or the
// line above it names the check.
func (a lineAllows) suppresses(line int, check string) bool {
	return a[line][check] || a[line-1][check]
}
