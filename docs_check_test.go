package smarth

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestPackageDocs is the `make docs-check` gate: every package under
// internal/ (and cmd/) must carry a package comment — the godoc that
// ARCHITECTURE.md leans on for per-package invariants. A package
// comment is a doc comment attached to a `package` clause in at least
// one non-test file.
func TestPackageDocs(t *testing.T) {
	for _, root := range []string{"internal", "cmd"} {
		err := filepath.WalkDir(root, func(dir string, d os.DirEntry, err error) error {
			if err != nil || !d.IsDir() {
				return err
			}
			if d.Name() == "testdata" {
				return filepath.SkipDir // analyzer fixtures, not godoc surface
			}
			if checkPackageDoc(t, dir) {
				t.Logf("%s: ok", dir)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// fullyDocumentedPackages are held to the stricter rule checked by
// TestExportedDocs: every exported identifier must carry a godoc
// comment, not just the package clause. The control-plane packages are
// the operator-facing surface DESIGN.md §12 documents, the analyzer
// framework is the contributor-facing surface DESIGN.md §13 documents,
// and the policy layer is the decision surface DESIGN.md §14
// documents, so their API docs gate the build.
var fullyDocumentedPackages = []string{
	"internal/namenode",
	"internal/nnapi",
	"internal/policy",
	"internal/analysis",
	"internal/analysis/analysistest",
	"internal/analysis/flow",
	"internal/analysis/lockorder",
	"internal/analysis/obsnilsafe",
	"internal/analysis/packetrelease",
	"internal/analysis/simdeterminism",
}

// TestExportedDocs enforces the stricter docs-check rule: in the
// packages listed above, every exported top-level identifier — type,
// function, method on an exported type, const, var — must have a doc
// comment, either on the declaration group or on the identifier's own
// spec.
func TestExportedDocs(t *testing.T) {
	fset := token.NewFileSet()
	for _, dir := range fullyDocumentedPackages {
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			name := e.Name()
			if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
				continue
			}
			path := filepath.Join(dir, name)
			f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
			if err != nil {
				t.Errorf("%s: %v", path, err)
				continue
			}
			checkExportedDocs(t, fset, path, f)
		}
	}
}

// checkExportedDocs walks one file's top-level declarations and reports
// every undocumented exported identifier.
func checkExportedDocs(t *testing.T, fset *token.FileSet, path string, f *ast.File) {
	undocumented := func(name *ast.Ident, doc *ast.CommentGroup, groupDoc *ast.CommentGroup) {
		if !name.IsExported() {
			return
		}
		if doc != nil && strings.TrimSpace(doc.Text()) != "" {
			return
		}
		if groupDoc != nil && strings.TrimSpace(groupDoc.Text()) != "" {
			return
		}
		t.Errorf("%s:%d: exported identifier %s has no doc comment",
			path, fset.Position(name.Pos()).Line, name.Name)
	}
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Recv != nil && !exportedReceiver(d.Recv) {
				continue // method on an unexported type: not exported API
			}
			undocumented(d.Name, d.Doc, nil)
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					undocumented(s.Name, s.Doc, d.Doc)
				case *ast.ValueSpec:
					for _, n := range s.Names {
						undocumented(n, s.Doc, d.Doc)
					}
				}
			}
		}
	}
}

// exportedReceiver reports whether a method receiver names an exported
// type.
func exportedReceiver(recv *ast.FieldList) bool {
	if len(recv.List) == 0 {
		return false
	}
	typ := recv.List[0].Type
	for {
		switch tt := typ.(type) {
		case *ast.StarExpr:
			typ = tt.X
		case *ast.IndexExpr: // generic receiver
			typ = tt.X
		case *ast.Ident:
			return tt.IsExported()
		default:
			return false
		}
	}
}

// checkPackageDoc reports whether dir holds a Go package, failing the
// test if it does and no non-test file documents it.
func checkPackageDoc(t *testing.T, dir string) bool {
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	hasGo := false
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		hasGo = true
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.PackageClauseOnly)
		if err != nil {
			t.Errorf("%s: %v", filepath.Join(dir, name), err)
			continue
		}
		if f.Doc != nil && strings.TrimSpace(f.Doc.Text()) != "" {
			return true
		}
	}
	if hasGo {
		t.Errorf("%s: package has no package comment (add a `// Package ...` doc comment; see ARCHITECTURE.md)", dir)
	}
	return false
}
