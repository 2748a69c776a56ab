package srcgraph

import (
	"fmt"
	"go/ast"
	"go/types"
	"reflect"
	"sort"
)

// Metrics-registration completeness check.
//
// A `metrics:"..."` field tag is an instruction to
// metrics.Registry.RegisterStruct — but the tag does nothing unless
// some RegisterStruct call actually reaches the struct. A Stats struct
// that grows tags without a registration (or loses its registration in
// a refactor) fails nothing: the counters silently never appear in
// snapshots, which are the repo's determinism fingerprints and golden
// regression artifacts. This check requires every struct type carrying
// metrics tags to be reached by a RegisterStruct call, either directly
// or as a nested struct field of a registered struct (RegisterStruct
// recurses through exported struct fields and arrays).
//
// Suppress with `//drslint:allow metrics-registration -- <why>` on the
// type declaration's line (or the line above it).

// CheckMetricsRegistration verifies that every metrics-tagged struct
// in the program is registered.
func CheckMetricsRegistration(prog *Program) []Finding {
	// Every named struct type carrying at least one metrics tag.
	type tagged struct {
		named *types.Named
		pkg   *Package
	}
	var taggedTypes []tagged
	for _, pkg := range prog.Pkgs {
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			st, ok := named.Underlying().(*types.Struct)
			if !ok {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				if _, has := reflect.StructTag(st.Tag(i)).Lookup("metrics"); has {
					taggedTypes = append(taggedTypes, tagged{named: named, pkg: pkg})
					break
				}
			}
		}
	}
	if len(taggedTypes) == 0 {
		return nil
	}

	// Struct types handed to a RegisterStruct call anywhere in the
	// program, plus the closure RegisterStruct itself walks: exported
	// struct fields and arrays of structs, recursively.
	registered := make(map[string]bool) // qualified type name
	var mark func(t types.Type)
	marked := make(map[types.Type]bool)
	mark = func(t types.Type) {
		if marked[t] {
			return
		}
		marked[t] = true
		if p, ok := t.(*types.Pointer); ok {
			mark(p.Elem())
			return
		}
		if named, ok := t.(*types.Named); ok {
			if _, isStruct := named.Underlying().(*types.Struct); isStruct {
				registered[qualifiedName(named)] = true
			}
			t = named.Underlying()
		}
		st, ok := t.(*types.Struct)
		if !ok {
			return
		}
		for i := 0; i < st.NumFields(); i++ {
			f := st.Field(i)
			if !f.Exported() {
				continue // RegisterStruct skips unexported fields
			}
			ft := f.Type()
			if arr, isArr := ft.Underlying().(*types.Array); isArr {
				ft = arr.Elem()
			}
			if _, isStruct := ft.Underlying().(*types.Struct); isStruct {
				mark(ft)
			}
		}
	}

	for _, pkg := range prog.Pkgs {
		for _, file := range pkg.Files {
			ast.Inspect(file, func(node ast.Node) bool {
				call, ok := node.(*ast.CallExpr)
				if !ok || len(call.Args) < 2 {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok || sel.Sel.Name != "RegisterStruct" {
					return true
				}
				if _, isFunc := pkg.Info.Uses[sel.Sel].(*types.Func); !isFunc {
					return true
				}
				if tv, ok := pkg.Info.Types[call.Args[1]]; ok && tv.Type != nil {
					mark(tv.Type)
				}
				return true
			})
		}
	}

	sort.Slice(taggedTypes, func(i, j int) bool {
		return qualifiedName(taggedTypes[i].named) < qualifiedName(taggedTypes[j].named)
	})

	var out []Finding
	for _, t := range taggedTypes {
		q := qualifiedName(t.named)
		if registered[q] {
			continue
		}
		pos := t.named.Obj().Pos()
		file, line := prog.Rel(pos)
		out = append(out, suppressible(prog, t.pkg, pos, Finding{
			File: file, Line: line, Check: CheckMetricsReg,
			Msg: fmt.Sprintf("struct %s carries metrics field tags but no RegisterStruct call ever reaches it (directly or as a nested field of a registered struct); its counters will silently never appear in snapshots — register it or suppress with %q",
				q, allowHint(CheckMetricsReg, "<why>")),
		})...)
	}
	SortFindings(out)
	return out
}

// qualifiedName renders "pkgpath.TypeName", the cross-package-unit
// identity key (object pointers differ between a package type-checked
// from source and the same package seen through export data).
func qualifiedName(n *types.Named) string {
	obj := n.Obj()
	if obj.Pkg() == nil {
		return obj.Name()
	}
	return obj.Pkg().Path() + "." + obj.Name()
}
