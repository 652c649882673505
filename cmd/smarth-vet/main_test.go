package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// repoRoot walks up from the test's working directory to the module
// root so the smoke runs resolve `./internal/...` patterns.
func repoRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("go.mod not found above test directory")
		}
		dir = parent
	}
}

// TestRunCleanPackages is the smoke test: the full suite loads,
// typechecks real repo packages through the export-data importer, and
// exits 0 on code that honors the invariants.
func TestRunCleanPackages(t *testing.T) {
	wd, _ := os.Getwd()
	if err := os.Chdir(repoRoot(t)); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)

	var stdout, stderr bytes.Buffer
	code := run([]string{"./internal/bufpool", "./internal/obs", "./internal/writesched"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d, stdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}
}

// TestRunFindsSeededFault proves the wiring end to end: a package with
// a planted determinism fault makes the standalone driver exit nonzero
// and name the analyzer in its output. (The fault is a wall-clock read
// in a package named writesched — simdeterminism matches deterministic
// packages by name, so no repro import is needed.)
func TestRunFindsSeededFault(t *testing.T) {
	dir := t.TempDir()
	src := `package writesched

import "time"

func stamp() int64 {
	return time.Now().UnixNano()
}
`
	if err := os.WriteFile(filepath.Join(dir, "faulty.go"), []byte(src), 0o666); err != nil {
		t.Fatal(err)
	}
	gomod := "module faultymod\n\ngo 1.22\n"
	if err := os.WriteFile(filepath.Join(dir, "go.mod"), []byte(gomod), 0o666); err != nil {
		t.Fatal(err)
	}

	wd, _ := os.Getwd()
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)

	var stdout, stderr bytes.Buffer
	code := run([]string{"."}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit %d, want 1; stdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}
	if !strings.Contains(stdout.String(), "[simdeterminism]") {
		t.Fatalf("expected a simdeterminism finding, got stdout:\n%s\nstderr:\n%s", stdout.String(), stderr.String())
	}
}

// TestRunRefusesFlags: smarth-vet takes only package patterns, so a
// flag-shaped argument is refused with a usage line and exit 2 instead
// of reaching `go list` as one of its flags.
func TestRunRefusesFlags(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-lockorder=false", "./internal/bufpool"}, &stdout, &stderr)
	if code != 2 {
		t.Fatalf("exit %d, want 2; stdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}
	if !strings.HasPrefix(stderr.String(), "usage: smarth-vet") || strings.Count(stderr.String(), "\n") != 1 {
		t.Fatalf("want a one-line usage on stderr, got %q", stderr.String())
	}
	if stdout.Len() != 0 {
		t.Fatalf("stdout not empty: %q", stdout.String())
	}
}
