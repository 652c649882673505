// Package analysis is a self-contained, stdlib-only reimplementation of
// the golang.org/x/tools go/analysis surface that smarth-vet builds on:
// an Analyzer runs over one type-checked package (a Pass) and reports
// position-anchored Diagnostics. The build environment pins a
// dependency-free go.mod, so instead of importing x/tools the package
// provides the same shape — Analyzer/Pass/Diagnostic and a `go list
// -export`-backed loader (load.go).
//
// The three production analyzers live in subpackages (lockorder,
// simdeterminism, obsnilsafe) and are wired into a multichecker by
// cmd/smarth-vet; DESIGN.md §13 states the invariant each one encodes
// and its known intra-procedural limits. Analyzer
// escape hatches are magic comments of the form `//smarth:<name>`
// (see Pass.AnnotatedAt).
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer describes one static check: a name (the diagnostic prefix),
// godoc-style documentation, and the Run function applied to every
// package under analysis.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics.
	Name string
	// Doc is the one-paragraph human description of the check.
	Doc string
	// Run executes the check over one package and reports findings via
	// pass.Reportf. A non-nil error aborts the whole vet run (reserved
	// for internal failures, not findings).
	Run func(pass *Pass) error
}

// Diagnostic is one finding: a position inside pass.Fset and a message.
type Diagnostic struct {
	// Pos locates the finding in the Pass's FileSet.
	Pos token.Pos
	// Message is the human-readable finding, without position prefix.
	Message string
	// Analyzer is the name of the analyzer that reported it.
	Analyzer string
}

// Pass carries one type-checked package through one analyzer, mirroring
// x/tools' analysis.Pass. Fields are read-only for analyzers.
type Pass struct {
	// Analyzer is the check being run.
	Analyzer *Analyzer
	// Fset maps token.Pos values in Files to file positions.
	Fset *token.FileSet
	// Files is the package's parsed syntax (non-test files only).
	Files []*ast.File
	// Pkg is the type-checked package.
	Pkg *types.Package
	// TypesInfo holds type and object resolution for Files.
	TypesInfo *types.Info

	diags map[string]Diagnostic // keyed by pos+message for dedup
	notes map[annotKey]bool     // lazily built //smarth: annotation index
}

type annotKey struct {
	file string
	line int
	name string
}

// Reportf records a finding at pos. Duplicate (pos, message) pairs are
// coalesced.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	if p.diags == nil {
		p.diags = make(map[string]Diagnostic)
	}
	msg := fmt.Sprintf(format, args...)
	key := fmt.Sprintf("%d:%s", pos, msg)
	p.diags[key] = Diagnostic{Pos: pos, Message: msg, Analyzer: p.Analyzer.Name}
}

// Diagnostics returns the findings reported so far, sorted by position.
func (p *Pass) Diagnostics() []Diagnostic {
	out := make([]Diagnostic, 0, len(p.diags))
	for _, d := range p.diags {
		out = append(out, d)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Pos != out[j].Pos {
			return out[i].Pos < out[j].Pos
		}
		return out[i].Message < out[j].Message
	})
	return out
}

// AnnotatedAt reports whether a `//smarth:<name>` escape-hatch comment
// annotates the source line of pos or the line immediately above it.
// Annotations are the audited suppression mechanism: each analyzer
// documents which one it honors (DESIGN.md §13).
func (p *Pass) AnnotatedAt(pos token.Pos, name string) bool {
	if p.notes == nil {
		p.notes = make(map[annotKey]bool)
		for _, f := range p.Files {
			fname := p.Fset.Position(f.Pos()).Filename
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					text := strings.TrimPrefix(c.Text, "//")
					text = strings.TrimSpace(text)
					if !strings.HasPrefix(text, "smarth:") {
						continue
					}
					ann := strings.Fields(strings.TrimPrefix(text, "smarth:"))
					if len(ann) == 0 {
						continue
					}
					line := p.Fset.Position(c.Pos()).Line
					p.notes[annotKey{fname, line, ann[0]}] = true
				}
			}
		}
	}
	position := p.Fset.Position(pos)
	return p.notes[annotKey{position.Filename, position.Line, name}] ||
		p.notes[annotKey{position.Filename, position.Line - 1, name}]
}

// Callee resolves the *types.Func a call expression invokes, or nil for
// builtins, conversions, and dynamic calls through function values.
func Callee(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// NamedReceiverType returns the named struct type of expr after
// stripping pointers, or nil. Analyzers use it to classify method
// receivers and mutex holders by type name.
func NamedReceiverType(info *types.Info, expr ast.Expr) *types.Named {
	tv, ok := info.Types[expr]
	if !ok || tv.Type == nil {
		return nil
	}
	t := tv.Type
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}
