package smarth

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
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
// the operator-facing surface DESIGN.md §12 documents and the policy
// layer is the decision surface DESIGN.md §14 documents, so their API
// docs gate the build.
var fullyDocumentedPackages = []string{
	"internal/namenode",
	"internal/nnapi",
	"internal/policy",
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

// docFiles are the documents TestDocPathsExist holds to the tree.
var docFiles = []string{"README.md", "ARCHITECTURE.md", "EXPERIMENTS.md", "DESIGN.md"}

var (
	docDirRef  = regexp.MustCompile(`\b(?:cmd|internal|examples)/[A-Za-z0-9_-]+`)
	docFileRef = regexp.MustCompile(`[A-Za-z0-9_./-]*[A-Za-z0-9_-]\.go\b`)
	docCode    = regexp.MustCompile("`[^`]+`")
	// docTestRef is a test, benchmark or fuzz target named in a document
	// (optionally package-qualified there); testDecl is where one is declared.
	docTestRef = regexp.MustCompile(`\b(?:Test|Benchmark|Fuzz)[A-Z][A-Za-z0-9_]*`)
	testDecl   = regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Fuzz)[A-Za-z0-9_]*)\(`)
	// designRef is a reference to a DESIGN.md section ("DESIGN.md §7",
	// "DESIGN §12", "DESIGN.md §11, §14"); designHeading is a section.
	designRef     = regexp.MustCompile(`DESIGN(?:\.md)?\s+§\d+(?:(?:,\s*|\s+and\s+|/)§\d+)*`)
	designSection = regexp.MustCompile(`§(\d+)`)
	designHeading = regexp.MustCompile(`(?m)^## (\d+)\. `)
)

// designRefSkip are the files whose DESIGN.md references are not held to
// the current sections: the change log records the numbering of its day.
var designRefSkip = map[string]bool{"CHANGES.md": true}

// TestDocPathsExist keeps the documents honest about the tree: every
// cmd/<name>, internal/<name> or examples/<name> path and every Go file
// name written as code (a backtick span or a fenced block) must exist —
// a file name with a directory at that path (from the root or from
// internal/), a bare one anywhere in the tree — and so must every Test*,
// Benchmark* or Fuzz* function named there, in some _test.go file — so a
// deletion cannot leave the docs pointing at what it removed. Sections
// whose heading (or an enclosing heading) says "history" or "retired"
// are exempt: they record what is gone. Every "DESIGN.md §N" (or
// "DESIGN §N") in a Go file or a Markdown file must name an existing
// "## N." section of DESIGN.md.
func TestDocPathsExist(t *testing.T) {
	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	sections := make(map[string]bool)
	for _, m := range designHeading.FindAllSubmatch(design, -1) {
		sections[string(m[1])] = true
	}
	goFiles := make(map[string]bool)   // base names of every .go file in the tree
	testFuncs := make(map[string]bool) // every Test*/Benchmark*/Fuzz* declared in it
	err = filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if strings.HasSuffix(path, ".go") {
			goFiles[d.Name()] = true
		}
		if (strings.HasSuffix(path, ".go") || strings.HasSuffix(path, ".md")) && !designRefSkip[path] {
			src, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			for i, line := range strings.Split(string(src), "\n") {
				for _, ref := range designRef.FindAllString(line, -1) {
					for _, m := range designSection.FindAllStringSubmatch(ref, -1) {
						if !sections[m[1]] {
							t.Errorf("%s:%d: %q: DESIGN.md has no section %s", path, i+1, ref, m[1])
						}
					}
				}
			}
		}
		if strings.HasSuffix(path, "_test.go") {
			src, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			for _, m := range testDecl.FindAllSubmatch(src, -1) {
				testFuncs[string(m[1])] = true
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	exists := func(path string) bool {
		_, err := os.Stat(path)
		return err == nil
	}
	for _, doc := range docFiles {
		data, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		var headings []string // enclosing headings, index = level-1
		fenced := false
		for i, line := range strings.Split(string(data), "\n") {
			if strings.HasPrefix(strings.TrimSpace(line), "```") {
				fenced = !fenced
				continue
			}
			if level := len(line) - len(strings.TrimLeft(line, "#")); !fenced && level > 0 && strings.HasPrefix(line[level:], " ") {
				headings = append(headings[:min(level-1, len(headings))], strings.ToLower(line))
				continue
			}
			if h := strings.Join(headings, "\n"); strings.Contains(h, "history") || strings.Contains(h, "retired") {
				continue
			}
			spans := []string{line}
			if !fenced {
				spans = docCode.FindAllString(line, -1)
			}
			for _, span := range spans {
				for _, dir := range docDirRef.FindAllString(span, -1) {
					if !exists(dir) {
						t.Errorf("%s:%d: `%s` does not exist", doc, i+1, dir)
					}
				}
				for _, file := range docFileRef.FindAllString(span, -1) {
					file = strings.TrimPrefix(file, "./")
					if strings.Contains(file, "/") && !exists(file) && !exists("internal/"+file) || !goFiles[filepath.Base(file)] {
						t.Errorf("%s:%d: `%s` does not exist", doc, i+1, file)
					}
				}
				for _, fn := range docTestRef.FindAllString(span, -1) {
					if !testFuncs[fn] {
						t.Errorf("%s:%d: no test file declares `%s`", doc, i+1, fn)
					}
				}
			}
		}
	}
}

// designMaxLines is DESIGN.md's line ceiling: the document may be
// rewritten but not grow, so a passage added is a passage cut, and a
// measurement table belongs in CHANGES.md.
const designMaxLines = 1919

// TestDesignCeiling holds DESIGN.md at or under designMaxLines lines.
func TestDesignCeiling(t *testing.T) {
	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(string(design), "\n"); n > designMaxLines {
		t.Fatalf("DESIGN.md has %d lines, over its ceiling of %d", n, designMaxLines)
	}
}
