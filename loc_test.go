package smarth

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestLOC is `make loc`: it prints the size figures ROADMAP and CHANGES
// quote for every simplicity PR, so they are reproducible rather than
// counted by hand — the non-test Go lines under internal/ and cmd/
// (every line of every .go file not ending in _test.go, analyzer
// fixtures included), the same count over the whole root module (every
// directory but the nested bench/ module), the line count of each root
// document TestDocPathsExist holds to the tree (docFiles), and the
// exported identifiers of each package under internal/ and cmd/:
// exported top-level names, exported methods on exported types, and
// exported fields of exported structs. It asserts nothing; run it with
// -v.
func TestLOC(t *testing.T) {
	lines := 0
	exported := map[string]int{}
	fset := token.NewFileSet()
	for _, root := range []string{"internal", "cmd"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return err
			}
			src, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			lines += bytes.Count(src, []byte("\n"))
			if strings.Contains(path, "testdata") {
				return nil // fixtures count as lines, not as API
			}
			f, err := parser.ParseFile(fset, path, src, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			exported[filepath.Dir(path)] += countExported(f)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	module := 0
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == "bench" || (path != "." && strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir // the nested module, .git and build caches
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		module += bytes.Count(src, []byte("\n"))
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	fmt.Printf("non-test Go lines in internal/ + cmd/: %d\n", lines)
	fmt.Printf("non-test Go lines in the root module outside bench/: %d\n", module)
	fmt.Println("lines per root document:")
	docLines := 0
	for _, doc := range docFiles {
		src, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		n := bytes.Count(src, []byte("\n"))
		docLines += n
		fmt.Printf("  %-40s %d\n", doc, n)
	}
	fmt.Printf("  %-40s %d\n", "total", docLines)
	fmt.Println("exported identifiers per package:")
	pkgs := make([]string, 0, len(exported))
	for p := range exported {
		pkgs = append(pkgs, p)
	}
	sort.Strings(pkgs)
	for _, p := range pkgs {
		fmt.Printf("  %-40s %d\n", p, exported[p])
	}
}

// countExported counts one file's exported API surface.
func countExported(f *ast.File) int {
	n := 0
	count := func(id *ast.Ident) {
		if id.IsExported() {
			n++
		}
	}
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil || exportedReceiver(d.Recv) {
				count(d.Name)
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.ValueSpec:
					for _, id := range s.Names {
						count(id)
					}
				case *ast.TypeSpec:
					count(s.Name)
					if st, ok := s.Type.(*ast.StructType); ok && s.Name.IsExported() {
						for _, field := range st.Fields.List {
							for _, id := range field.Names {
								count(id)
							}
						}
					}
				}
			}
		}
	}
	return n
}
