// Package analysistest is the golden-file test harness for the
// smarth-vet analyzers, mirroring the x/tools package of the same
// name: a fixture directory under testdata/src/<name> is loaded the way
// smarth-vet loads any package, by analysis.Load over the pattern "."
// run from that directory (the go tool lists an explicit testdata
// directory, so the fixture type-checks under its full import path and
// may import real repo packages like repro/internal/proto), the
// analyzer runs over it, and the diagnostics are compared against
// `// want "regexp"` comments in the fixture sources. Every expected
// diagnostic must occur on its annotated line, and every reported
// diagnostic must be expected.
package analysistest

import (
	"fmt"
	"go/token"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/analysis"
)

// wantRe extracts the expectation comment: `// want "re" "re2" ...`.
var wantRe = regexp.MustCompile(`//\s*want\s+(.*)$`)

// expectation is one `// want` pattern at a file:line.
type expectation struct {
	file    string
	line    int
	pattern *regexp.Regexp
	matched bool
}

// Run loads testdata/src/<fixture> relative to the caller's package
// directory, applies the analyzer, and asserts the diagnostics match
// the fixture's `// want` comments exactly.
func Run(t *testing.T, a *analysis.Analyzer, fixture string) {
	t.Helper()
	dir := filepath.Join("testdata", "src", fixture)
	pkgs, err := analysis.Load(dir, ".")
	if err != nil {
		t.Fatalf("loading fixture %s: %v", dir, err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("loading fixture %s: got %d packages, want 1", dir, len(pkgs))
	}
	pkg := pkgs[0]
	diags, _, err := analysis.RunAnalyzers(pkgs, []*analysis.Analyzer{a})
	if err != nil {
		t.Fatalf("running %s on %s: %v", a.Name, dir, err)
	}
	wants, err := parseWants(pkg)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		pos := pkg.Fset.Position(d.Pos)
		if !matchWant(wants, pos, d.Message) {
			t.Errorf("%s: unexpected diagnostic: %s", pos, d.Message)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", w.file, w.line, w.pattern)
		}
	}
}

// parseWants collects every `// want` expectation in the fixture.
func parseWants(pkg *analysis.Package) ([]*expectation, error) {
	var wants []*expectation
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				patterns, err := splitPatterns(m[1])
				if err != nil {
					return nil, fmt.Errorf("%s: bad want comment: %v", pos, err)
				}
				for _, p := range patterns {
					re, err := regexp.Compile(p)
					if err != nil {
						return nil, fmt.Errorf("%s: bad want pattern %q: %v", pos, p, err)
					}
					wants = append(wants, &expectation{file: pos.Filename, line: pos.Line, pattern: re})
				}
			}
		}
	}
	return wants, nil
}

// splitPatterns parses the quoted regexps of one want comment.
func splitPatterns(s string) ([]string, error) {
	var out []string
	s = strings.TrimSpace(s)
	for s != "" {
		if s[0] != '"' && s[0] != '`' {
			return nil, fmt.Errorf("expected quoted pattern at %q", s)
		}
		quote := s[0]
		end := -1
		for i := 1; i < len(s); i++ {
			if s[i] == quote && (quote == '`' || s[i-1] != '\\') {
				end = i
				break
			}
		}
		if end < 0 {
			return nil, fmt.Errorf("unterminated pattern in %q", s)
		}
		raw := s[:end+1]
		var pat string
		if quote == '`' {
			pat = raw[1 : len(raw)-1]
		} else {
			unq, err := strconv.Unquote(raw)
			if err != nil {
				return nil, err
			}
			pat = unq
		}
		out = append(out, pat)
		s = strings.TrimSpace(s[end+1:])
	}
	return out, nil
}

// matchWant marks and reports the first unmatched expectation on the
// diagnostic's line whose pattern matches the message.
func matchWant(wants []*expectation, pos token.Position, msg string) bool {
	for _, w := range wants {
		if w.matched || w.line != pos.Line || w.file != pos.Filename {
			continue
		}
		if w.pattern.MatchString(msg) {
			w.matched = true
			return true
		}
	}
	return false
}
