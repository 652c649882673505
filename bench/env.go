package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// scratchDir holds everything a run leaves behind (block files,
// trace.jsonl). It is relative to the working directory, which run.sh
// makes the benchmark's own directory, and is git-ignored.
const scratchDir = "out"

// environment is what a reader needs to judge whether two result sets
// were taken on comparable machines.
type environment struct {
	Go         string `json:"go"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	TempFS     string `json:"temp_fs"`
}

// fsNames maps statfs magic numbers to names, for the filesystems a
// temp dir is likely to sit on.
var fsNames = map[int64]string{
	0x01021994: "tmpfs",
	0xEF53:     "ext2/ext3/ext4",
	0x794c7630: "overlayfs",
	0x58465342: "xfs",
	0x9123683E: "btrfs",
	0x2fc12fc1: "zfs",
	0x6969:     "nfs",
}

func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	if name, ok := fsNames[int64(st.Type)]; ok {
		return name
	}
	return fmt.Sprintf("fs-0x%x", st.Type)
}

func describeEnvironment() environment {
	return environment{
		Go:         runtime.Version(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		TempFS:     fsType(scratchDir),
	}
}

// historyEntry is one line of history.jsonl: enough to place a result
// set on the repository's trajectory after the set itself is replaced.
type historyEntry struct {
	Time    string  `json:"time"`
	Commit  string  `json:"commit"`
	File    string  `json:"file"`
	Seconds float64 `json:"seconds"`
	environment
	MemCopyMBps float64            `json:"mem_copy_MBps"`
	TCPCopyMBps float64            `json:"tcp_copy_MBps"`
	Medians     map[string]float64 `json:"medians"` // "<workload>.<metric>"
}

// writeRunSet writes the result set to path and, when the set covers
// every workload, appends its history line to history.jsonl in the
// same directory.
func writeRunSet(path string, set *runSet) error {
	b, err := json.MarshalIndent(set, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return err
	}
	if len(set.Workloads) < len(workloads) {
		return nil
	}
	commit := "unknown" // a checkout without git still records its numbers
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	mem, err := probeMemCopy()
	if err != nil {
		return err
	}
	tcp, err := probeTCPCopy()
	if err != nil {
		return err
	}
	e := historyEntry{
		Time: time.Now().UTC().Format(time.RFC3339), Commit: commit, File: filepath.Base(path),
		Seconds: set.Seconds, environment: set.Env,
		MemCopyMBps: mem.mbps, TCPCopyMBps: tcp.mbps,
		Medians: make(map[string]float64),
	}
	for _, w := range set.Workloads {
		for name, m := range w.Metrics {
			e.Medians[w.Workload+"."+name] = m.Median
		}
	}
	line, err := json.Marshal(e)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(filepath.Join(filepath.Dir(path), "history.jsonl"), os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// recordGolden rewrites the golden file sim_fig13 compares with.
func recordGolden() error {
	inst, err := setupSim(runOpts{})
	if err != nil {
		return err
	}
	b := inst.(*simBench)
	got, err := encodePoints(b.exp.Run(1))
	if err != nil {
		return err
	}
	return os.WriteFile("testdata/figure13.golden.json", append(got, '\n'), 0o644)
}
