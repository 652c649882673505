// Command smarth-bench regenerates the paper's evaluation: every figure's
// sweep runs in the discrete-event simulator at paper scale and is
// printed as a text table next to the paper's reported expectation.
//
// Usage:
//
//	smarth-bench                    # run everything at full scale
//	smarth-bench -figure figure13   # one figure
//	smarth-bench -scale 8           # divide file sizes by 8 (quick look)
//	smarth-bench -out results.md    # also write a Markdown report
//
// A figure's simulations run in parallel (sim.RunAll, one worker per
// GOMAXPROCS): the full suite at scale 1 — 16 figures, 140 simulations —
// takes about 6 s on two cores, 10 s on one.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/ec2"
	"repro/internal/obs"
	"repro/internal/proto"
	"repro/internal/sim"
)

// printTimeline visualizes pipeline overlap: a 1 GB (16-block) SMARTH
// run on the throttled two-rack small cluster vs the same workload under
// HDFS. The workload is fixed regardless of -scale so the chart always
// shows enough pipelines to see the overlap. When tracePath is set, the
// SMARTH run's span records are exported as JSONL in the same format the
// live client emits (re-render with `smarth-admin -trace <file>`).
func printTimeline(tracePath string) error {
	size := int64(1) << 30
	for _, mode := range []proto.WriteMode{proto.ModeHDFS, proto.ModeSmarth} {
		r, err := sim.Run(sim.Config{
			Preset:        ec2.SmallCluster,
			FileSize:      size,
			Mode:          mode,
			CrossRackMbps: 50,
			Trace:         true,
			Seed:          2,
		})
		if err != nil {
			return err
		}
		fmt.Printf("\n%s, 1GB, small cluster, 50Mbps cross-rack (total %.1fs):\n", mode, r.Duration.Seconds())
		obs.RenderTimeline(os.Stdout, r.Trace)
		if tracePath != "" && mode == proto.ModeSmarth {
			f, err := os.Create(tracePath)
			if err != nil {
				return err
			}
			if err := obs.WriteJSONL(f, r.Trace); err != nil {
				f.Close()
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
			fmt.Printf("wrote %d simulated span records to %s\n", len(r.Trace), tracePath)
		}
	}
	fmt.Println()
	return nil
}

func main() {
	figure := flag.String("figure", "", "run only this figure (e.g. figure6); empty = all")
	scale := flag.Int64("scale", 1, "divide the paper's file sizes by this factor")
	out := flag.String("out", "", "also write a Markdown report to this file")
	csvPath := flag.String("csv", "", "also write tidy per-point data (figure,x,protocol,seconds) for plotting")
	timeline := flag.Bool("timeline", false, "also draw the pipeline-overlap timeline for a throttled SMARTH run")
	traceOut := flag.String("trace", "", "with -timeline: export the simulated SMARTH run's spans as JSONL (render with smarth-admin -trace)")
	flag.Parse()

	if *timeline || *traceOut != "" {
		if err := printTimeline(*traceOut); err != nil {
			fmt.Fprintln(os.Stderr, "smarth-bench:", err)
			os.Exit(1)
		}
	}

	experiments := sim.Experiments()
	if *figure != "" {
		e, ok := sim.ExperimentByID(*figure)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown figure %q; known:", *figure)
			for _, e := range experiments {
				fmt.Fprintf(os.Stderr, " %s", e.ID)
			}
			fmt.Fprintln(os.Stderr)
			os.Exit(2)
		}
		experiments = []sim.Experiment{e}
	}

	var report strings.Builder
	emit := func(s string) {
		fmt.Print(s)
		report.WriteString(s)
	}

	var csv strings.Builder
	csv.WriteString("figure,x,protocol,seconds,improvement_pct\n")

	emit(sim.Table1() + "\n")
	start := time.Now()
	for _, e := range experiments {
		t0 := time.Now()
		pts := e.Run(*scale)
		emit(sim.FormatPoints(e, pts))
		emit(fmt.Sprintf("(simulated in %.1fs wall clock)\n\n", time.Since(t0).Seconds()))
		for _, p := range pts {
			imp := p.Improvement() * 100
			fmt.Fprintf(&csv, "%s,%s,hdfs,%.1f,%.0f\n", e.ID, p.Label, p.HDFS.Duration.Seconds(), imp)
			fmt.Fprintf(&csv, "%s,%s,smarth,%.1f,%.0f\n", e.ID, p.Label, p.Smarth.Duration.Seconds(), imp)
		}
	}
	emit(fmt.Sprintf("total wall clock: %.1fs (scale 1/%d)\n", time.Since(start).Seconds(), *scale))

	if *csvPath != "" {
		if err := os.WriteFile(*csvPath, []byte(csv.String()), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "write csv:", err)
			os.Exit(1)
		}
		fmt.Println("tidy data written to", *csvPath)
	}

	if *out != "" {
		md := "# SMARTH reproduction results\n\n```\n" + report.String() + "```\n"
		if err := os.WriteFile(*out, []byte(md), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "write report:", err)
			os.Exit(1)
		}
		fmt.Println("report written to", *out)
	}
}
