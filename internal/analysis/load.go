// Package loading for the analyzers: a `go list -export`-backed
// importer that type-checks packages offline from compiler export data,
// standing in for golang.org/x/tools/go/packages.
package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
)

// Package is one loaded, type-checked package ready for analysis.
type Package struct {
	// ImportPath is the package's canonical import path.
	ImportPath string
	// Dir is the directory holding the package's sources.
	Dir string
	// Fset positions the package's syntax (shared across a Load call).
	Fset *token.FileSet
	// Files is the parsed non-test syntax.
	Files []*ast.File
	// Types is the type-checked package object.
	Types *types.Package
	// Info carries identifier resolution and expression types.
	Info *types.Info
}

// listPkg mirrors the subset of `go list -json` output the loader
// consumes.
type listPkg struct {
	Dir        string
	ImportPath string
	Export     string
	GoFiles    []string
	CgoFiles   []string
	DepOnly    bool
	Error      *struct{ Err string }
}

// goList runs `go list -e -export -deps -json` over args and returns
// the decoded package stream.
func goList(dir string, args []string) ([]*listPkg, error) {
	cmd := exec.Command("go", append([]string{
		"list", "-e", "-export", "-deps",
		"-json=Dir,ImportPath,Export,GoFiles,CgoFiles,DepOnly,Error",
	}, args...)...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list: %v\n%s", err, stderr.String())
	}
	var pkgs []*listPkg
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		p := new(listPkg)
		if err := dec.Decode(p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list output: %v", err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// exportImporter satisfies go/types through compiler export data files
// discovered by `go list -export`.
func exportImporter(fset *token.FileSet, exports map[string]string) types.Importer {
	return importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok || file == "" {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})
}

// newInfo allocates the types.Info maps every Pass expects populated.
func newInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
		Instances:  make(map[*ast.Ident]types.Instance),
	}
}

// Load resolves patterns (as `go list` understands them, e.g. ./...)
// from dir, parses and type-checks every matched package against export
// data, and returns them sorted by import path. Packages with cgo files
// are skipped — the repo has none, and export data alone cannot
// type-check their generated halves.
func Load(dir string, patterns ...string) ([]*Package, error) {
	listed, err := goList(dir, patterns)
	if err != nil {
		return nil, err
	}
	exports := make(map[string]string, len(listed))
	for _, lp := range listed {
		if lp.Export != "" {
			exports[lp.ImportPath] = lp.Export
		}
	}
	fset := token.NewFileSet()
	imp := exportImporter(fset, exports)
	var out []*Package
	for _, lp := range listed {
		if lp.DepOnly || len(lp.CgoFiles) > 0 || len(lp.GoFiles) == 0 {
			continue
		}
		if lp.Error != nil {
			return nil, fmt.Errorf("%s: %s", lp.ImportPath, lp.Error.Err)
		}
		pkg, err := typecheck(fset, imp, lp.ImportPath, lp.Dir, lp.GoFiles)
		if err != nil {
			return nil, err
		}
		out = append(out, pkg)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ImportPath < out[j].ImportPath })
	return out, nil
}

// typecheck parses one listed package's files (relative to dir) and
// runs go/types over them.
func typecheck(fset *token.FileSet, imp types.Importer, path, dir string, goFiles []string) (*Package, error) {
	var parsed []*ast.File
	for _, name := range goFiles {
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		parsed = append(parsed, f)
	}
	info := newInfo()
	var firstErr error
	conf := types.Config{
		Importer: imp,
		Error: func(err error) {
			if firstErr == nil {
				firstErr = err
			}
		},
	}
	tpkg, err := conf.Check(path, fset, parsed, info)
	if firstErr != nil {
		return nil, fmt.Errorf("typecheck %s: %v", dir, firstErr)
	}
	if err != nil {
		return nil, fmt.Errorf("typecheck %s: %v", dir, err)
	}
	return &Package{
		ImportPath: path,
		Dir:        dir,
		Fset:       fset,
		Files:      parsed,
		Types:      tpkg,
		Info:       info,
	}, nil
}

// RunAnalyzers applies each analyzer to each package and returns every
// diagnostic, sorted by position then analyzer.
func RunAnalyzers(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, *token.FileSet, error) {
	var all []Diagnostic
	var fset *token.FileSet
	for _, pkg := range pkgs {
		fset = pkg.Fset
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.Info,
			}
			if err := a.Run(pass); err != nil {
				return nil, nil, fmt.Errorf("%s on %s: %v", a.Name, pkg.ImportPath, err)
			}
			all = append(all, pass.Diagnostics()...)
		}
	}
	return all, fset, nil
}
