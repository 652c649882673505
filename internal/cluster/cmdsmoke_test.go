package cluster

import (
	"bytes"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/workload"
)

// syncBuffer is a bytes.Buffer safe to poll while exec writes into it.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.buf.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.buf.String()
}

// TestCommandLineTools builds and exercises the shipped binaries end to
// end: smarth-cluster serves over real TCP, smarth-put uploads, traces
// and verifies a file, smarth-admin renders the trace, smarth-fsck
// reports health, and smarth-admin renames the file. This is the closest thing to the paper's actual workflow
// (`hdfs put` against a running cluster).
func TestCommandLineTools(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries; skipped in -short mode")
	}
	bin := t.TempDir()
	for _, tool := range []string{"smarth-cluster", "smarth-put", "smarth-fsck", "smarth-admin"} {
		cmd := exec.Command("go", "build", "-o", filepath.Join(bin, tool), "repro/cmd/"+tool)
		cmd.Dir = moduleRoot(t)
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("build %s: %v\n%s", tool, err, out)
		}
	}

	// Pick a free port for the namenode.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	nnAddr := l.Addr().String()
	l.Close()

	clusterCmd := exec.Command(filepath.Join(bin, "smarth-cluster"), "-nn", nnAddr, "-datanodes", "5")
	var clusterOut syncBuffer
	clusterCmd.Stdout = &clusterOut
	clusterCmd.Stderr = &clusterOut
	if err := clusterCmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		clusterCmd.Process.Signal(syscall.SIGTERM)
		clusterCmd.Wait()
	}()

	// Wait for the cluster to come up.
	deadline := time.Now().Add(10 * time.Second)
	for !strings.Contains(clusterOut.String(), "cluster up") {
		if time.Now().After(deadline) {
			t.Fatalf("cluster did not start:\n%s", clusterOut.String())
		}
		time.Sleep(50 * time.Millisecond)
	}

	// Upload a file, tracing the write, and verify its digest round-trips.
	tmp := t.TempDir()
	src, trace := filepath.Join(tmp, "payload.bin"), filepath.Join(tmp, "t.jsonl")
	if err := os.WriteFile(src, workload.Data(5, 2<<20), 0o644); err != nil {
		t.Fatal(err)
	}
	put := exec.Command(filepath.Join(bin, "smarth-put"),
		"-nn", nnAddr, "-src", src, "-dst", "/smoke", "-mode", "smarth",
		"-block", fmt.Sprint(256<<10), "-verify", "-trace", trace)
	if out, err := put.CombinedOutput(); err != nil {
		t.Fatalf("smarth-put: %v\n%s", err, out)
	} else if !strings.Contains(string(out), "digest matches upload: OK") {
		t.Fatalf("put output missing verification:\n%s", out)
	}

	// The exported trace renders offline as the write's span tree.
	out, err := exec.Command(filepath.Join(bin, "smarth-admin"), "-trace", trace).CombinedOutput()
	if err != nil {
		t.Fatalf("smarth-admin -trace: %v\n%s", err, out)
	}
	for _, want := range []string{"write#", "block#", "pipeline#", "fnfa"} {
		if !strings.Contains(string(out), want) {
			t.Fatalf("rendered trace missing %q:\n%s", want, out)
		}
	}

	// fsck sees a healthy file.
	fsck := exec.Command(filepath.Join(bin, "smarth-fsck"), "-nn", nnAddr)
	out, err = fsck.CombinedOutput()
	if err != nil {
		t.Fatalf("smarth-fsck: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "/smoke") || !strings.Contains(string(out), "HEALTHY") {
		t.Fatalf("fsck output:\n%s", out)
	}

	// Admin rename, then fsck shows the new path.
	admin := exec.Command(filepath.Join(bin, "smarth-admin"), "-nn", nnAddr, "-mv", "/smoke,/renamed")
	if out, err := admin.CombinedOutput(); err != nil {
		t.Fatalf("smarth-admin: %v\n%s", err, out)
	}
	out, err = exec.Command(filepath.Join(bin, "smarth-fsck"), "-nn", nnAddr).CombinedOutput()
	if err != nil || !strings.Contains(string(out), "/renamed") {
		t.Fatalf("fsck after rename: %v\n%s", err, out)
	}
}

// moduleRoot finds the repository root (where go.mod lives).
func moduleRoot(t *testing.T) string {
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
