// Command bench is the repository's benchmark: six fixed workloads on
// in-process clusters, end-to-end metrics reported as medians with
// quartiles over slices of a timed region, and — with -trace 1 — a
// per-layer run that times each layer alone and attributes the
// workload's CPU cost to them. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"text/tabwriter"
)

// metricDef defines one metric: how to read it and, for end-to-end
// metrics, by what share of the parent's median it may worsen before a
// change counts as a regression (0 = reported, never gated).
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics every workload reports: the ones
// BENCHMARK.json lists. An operation is the workload's unit of work —
// one file written or read, one warmed SMARTH pass, one metadata file
// lifecycle, one repetition of the simulated figure.
var endToEnd = []metricDef{
	{"op_ms", "ms", "lower", 0.20},
	{"cpu_ms_per_op", "ms", "lower", 0.20},
	{"alloc_MB_per_op", "MB", "lower", 0.05},
	{"setup_s", "s", "lower", 0.25},
}

// perWorkload are the same measurements in each workload's own units,
// plus the few that exist on one workload only. -compare gates them
// like the end-to-end metrics, with the bound of the end-to-end metric
// they restate (times and CPU 0.20, allocation 0.05).
var perWorkload = []metricDef{
	{"write_MBps", "MB/s", "higher", 0.20},
	{"hdfs_write_MBps", "MB/s", "higher", 0.20},
	{"read_MBps", "MB/s", "higher", 0.20},
	{"cpu_s_per_GB", "s/GB", "lower", 0.20},
	{"alloc_MB_per_GB", "MB/GB", "lower", 0.05},
	{"meta_ops_per_s", "1/s", "higher", 0.20},
	{"addblock_p50_us", "us", "lower", 0.20},
	{"addblock_p99_us", "us", "lower", 0.20},
	{"sim_GB_per_s", "GB/s", "higher", 0.20},
	{"smarth_gain_pct", "%", "higher", 0},
}

var metricDefs = func() map[string]metricDef {
	m := make(map[string]metricDef)
	for _, d := range append(append([]metricDef(nil), endToEnd...), perWorkload...) {
		m[d.Name] = d
	}
	return m
}()

var workloads = []*workload{
	{
		name: "mem_write_r3", rate: "write_MBps", bytesPerOp: fileBytes, setup: setupMemWrite,
		why:   "SMARTH 64 MB uploads, in-memory transport, 9 datanodes, MemStore, R3, 1 MB blocks: store churn, bufpool, checksum, proto, datanode mirror/ack and block cadence do the work; kernel and namenode almost none",
		notes: []string{"in-memory transport; no sockets"},
	},
	{
		name: "tcp_write_r3", rate: "write_MBps", bytesPerOp: fileBytes, setup: setupTCPWrite,
		why: "the same upload on loopback TCP, 3 datanodes, DiskStore, R3, 8 MB blocks: the deployed shape, where transport writev/cork, mirror hops and disk append/finalize dominate",
	},
	{
		name: "tcp_read_r3", rate: "read_MBps", bytesPerOp: fileBytes, setup: setupTCPRead,
		why: "re-opens and drains four 64 MB R3 files over loopback TCP from DiskStore: the same layers used the other way, so a write-side win that costs reads shows",
	},
	{
		name: "shaped_xrack100", rate: "write_MBps", bytesPerOp: shapedBytes, setup: setupShaped,
		why:   "the paper's mechanism live: 9 datanodes in two racks, 100 Mbps between racks, HDFS pass vs warmed SMARTH passes; bandwidth-bound, so only scheduling and placement decisions move it",
		notes: []string{"in-memory transport shaped by cluster.Shaper; no sockets"},
	},
	{
		name: "meta_2w", setup: setupMeta,
		why:   "two closed-loop rpc clients run create/heartbeat/addBlock/blockReceived/complete/delete against 16384 prefilled files, no block data: only rpc, nnapi codec, namenode shards and policy.Place run",
		notes: []string{"in-memory transport; no sockets"},
	},
	{
		name: "sim_fig13", setup: setupSim,
		why:   "repeats the paper's figure 13 on the discrete-event simulator: des, netsim, sim and the real namenode and writesched on a virtual clock, no sockets or payload; the only workload a DES change moves",
		notes: []string{"-seed is not used: the figure fixes its own seeds, and the points are compared with a golden file"},
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// runSet is everything one invocation measured, as written by -out.
type runSet struct {
	Seconds   float64           `json:"seconds"`
	Seed      int64             `json:"seed"`
	Env       environment       `json:"env"`
	Workloads []*workloadResult `json:"workloads"`
}

// contractLine is the one-line JSON object a driver reads.
type contractLine struct {
	Correct   bool                     `json:"correct"`
	Attempted int                      `json:"attempted"`
	Failed    int                      `json:"failed"`
	Metrics   map[string]contractValue `json:"metrics"`
}

type contractValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func printContract(w io.Writer, ops, failed int, defs []metricDef, value func(name string) float64) {
	line := contractLine{Correct: failed == 0, Attempted: ops, Failed: failed, Metrics: make(map[string]contractValue)}
	for _, d := range defs {
		line.Metrics[d.Name] = contractValue{value(d.Name), d.Unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		panic(err) // plain numbers and strings always encode
	}
	fmt.Fprintf(w, "%s\n", b)
}

func printResult(w io.Writer, res *workloadResult) {
	fmt.Fprintf(w, "\n== %s: %s\n", res.Workload, res.Why)
	for _, n := range res.Notes {
		fmt.Fprintf(w, "   (%s)\n", n)
	}
	fmt.Fprintf(w, "   ops %d, failed_ops %d; closed loop\n", res.Ops, res.FailedOps)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "metric\tunit\tbetter\tbound\tmedian\tq1\tq3\tmin\tmax\tn\t")
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := res.Metrics[name]
		bound := "-"
		if m.Bound > 0 {
			bound = fmt.Sprintf("%.2f", m.Bound)
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%.4g\t%.4g\t%.4g\t%.4g\t%.4g\t%d\t\n",
			name, m.Unit, m.Better, bound, m.Median, m.Q1, m.Q3, m.Min, m.Max, m.N)
	}
	tw.Flush()
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	names := fs.String("workload", "", "comma-separated workloads to run (default: all)")
	seed := fs.Int64("seed", 1, "seed for cluster randomness and file contents")
	seconds := fs.Float64("seconds", 10, "timed region per workload; results taken at different lengths are never compared")
	trace := fs.Int("trace", 0, "1 = traced run: per-layer metrics and the CPU ledger instead of end-to-end metrics")
	out := fs.String("out", "", "also write the result set as JSON here; a set of all six workloads is also appended to history.jsonl beside it")
	compare := fs.Bool("compare", false, "compare two result sets: bench -compare A.json B.json")
	golden := fs.Bool("record-golden", false, "rewrite testdata/figure13.golden.json from the simulator and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	switch {
	case *compare:
		if fs.NArg() != 2 {
			return fmt.Errorf("usage: bench -compare A.json B.json")
		}
		return compareFiles(stdout, fs.Arg(0), fs.Arg(1))
	case *golden:
		return recordGolden()
	case fs.NArg() != 0:
		return fmt.Errorf("unexpected arguments %q", fs.Args())
	case *seconds <= 0:
		return fmt.Errorf("-seconds must be positive")
	}

	selected := workloads
	if *names != "" {
		selected = nil
		for _, n := range strings.Split(*names, ",") {
			w := workloadByName(n)
			if w == nil {
				return fmt.Errorf("unknown workload %q", n)
			}
			selected = append(selected, w)
		}
	}
	if err := os.MkdirAll(scratchDir, 0o755); err != nil {
		return err
	}
	env := describeEnvironment()
	fmt.Fprintf(stdout, "# %s %s/%s, nproc %d, GOMAXPROCS %d, temp dir %s on %s; all TCP traffic is host loopback\n",
		env.Go, runtime.GOOS, runtime.GOARCH, env.NProc, env.GOMAXPROCS, scratchDir, env.TempFS)
	fmt.Fprintf(stdout, "# seed %d, %g s timed region in %d slices, %d set-up repetitions; MB = 1e6 bytes, GB = 1e9 bytes\n",
		*seed, *seconds, numSlices, setupReps)

	set := runSet{Seconds: *seconds, Seed: *seed, Env: env}
	var failed error
	if len(selected) == 1 {
		o := runOpts{seed: *seed, seconds: *seconds}
		if *trace != 0 {
			return runTraced(stdout, selected[0], o)
		}
		res, err := runWorkload(selected[0], o)
		if err != nil {
			return err
		}
		set.Workloads = append(set.Workloads, res)
		if res.FailedOps > 0 {
			failed = fmt.Errorf("%d failed operations", res.FailedOps)
		}
		printResult(stdout, res)
		printContract(stdout, res.Ops, res.FailedOps, endToEnd, func(name string) float64 { return res.Metrics[name].Median })
	} else {
		// Every workload gets a process of its own: the goroutines and
		// heap one leaves behind (README, known pitfalls) would
		// otherwise be charged to the next.
		self, err := os.Executable()
		if err != nil {
			return err
		}
		for _, w := range selected {
			part := filepath.Join(scratchDir, "part-"+w.name+".json")
			cmd := exec.Command(self, "-workload", w.name, "-seed", fmt.Sprint(*seed), "-seconds", fmt.Sprint(*seconds), "-trace", fmt.Sprint(*trace), "-out", part)
			cmd.Stdout, cmd.Stderr = stdout, os.Stderr
			if err := cmd.Run(); err != nil {
				failed = fmt.Errorf("%s: %w", w.name, err)
			}
			if *trace != 0 {
				continue
			}
			one, err := readRunSet(part)
			if err != nil {
				return err
			}
			set.Workloads = append(set.Workloads, one.Workloads...)
		}
	}
	if *out != "" && *trace == 0 {
		if err := writeRunSet(*out, &set); err != nil {
			return err
		}
	}
	return failed
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}
