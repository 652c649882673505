// Command smarth-vet is the multichecker for the repo's
// invariants-as-code suite (internal/analysis): lockorder,
// simdeterminism, and obsnilsafe. It takes go list package patterns
// (default ./...) and always runs all three analyzers:
//
//	smarth-vet ./...
//	smarth-vet ./internal/namenode
//
// Each finding prints as `pos: [analyzer] message`. The exit status is
// 1 when any diagnostic is reported (or loading fails) and 2 on a
// flag-shaped argument. DESIGN.md §13 documents the invariant each
// analyzer encodes and its escape-hatch annotation.
package main

import (
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/analysis"
	"repro/internal/analysis/lockorder"
	"repro/internal/analysis/obsnilsafe"
	"repro/internal/analysis/simdeterminism"
)

// suite is the full analyzer set smarth-vet ships.
var suite = []*analysis.Analyzer{
	lockorder.Analyzer,
	simdeterminism.Analyzer,
	obsnilsafe.Analyzer,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point; it returns the process exit code.
func run(patterns []string, stdout, stderr io.Writer) int {
	for _, p := range patterns {
		// A flag would otherwise reach `go list` as one of its own.
		if strings.HasPrefix(p, "-") {
			fmt.Fprintf(stderr, "usage: smarth-vet [package patterns] (no flags; got %q)\n", p)
			return 2
		}
	}
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	pkgs, err := analysis.Load(cwd, patterns...)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	diags, fset, err := analysis.RunAnalyzers(pkgs, suite)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	for _, d := range diags {
		fmt.Fprintf(stdout, "%s: [%s] %s\n", fset.Position(d.Pos), d.Analyzer, d.Message)
	}
	if len(diags) > 0 {
		fmt.Fprintf(stderr, "smarth-vet: %d finding(s)\n", len(diags))
		return 1
	}
	return 0
}
