// Command smarth-live cross-validates the simulator against the real
// concurrent stack: the same two-rack throttle sweep runs (a) at paper
// scale in the discrete-event simulator and (b) scaled ~128x down with
// real bytes through shaped pipelines, and the improvement percentages
// are printed side by side. Matching ratios are the evidence that the
// simulator's figures reflect the implemented protocol, not a separate
// model.
//
// Usage:
//
//	smarth-live                 # 50/100/150 Mbps sweep (~30 s)
//	smarth-live -mbps 100       # one throttle point
//	smarth-live -trace t.jsonl              # traced clean write
//	smarth-live -trace t.jsonl -trace-fault # freeze a datanode mid-write
//
// With -trace, one instrumented SMARTH upload runs on a small rigged
// cluster; the per-pipeline span timeline and the component metrics are
// printed, and the raw span records are exported as JSONL to the given
// file (re-render later with `smarth-admin -trace t.jsonl`).
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/ec2"
	"repro/internal/livebench"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/proto"
	"repro/internal/sim"
)

func main() {
	one := flag.Float64("mbps", 0, "run only this cross-rack throttle (0 = sweep 50/100/150)")
	traceOut := flag.String("trace", "", "run one traced SMARTH write and export span JSONL to this file")
	traceFault := flag.Bool("trace-fault", false, "with -trace: freeze the mirror datanode mid-write to trace a recovery")
	traceSampling := flag.Int("trace-sampling", 0, "with -trace: record every Nth packet as a span event (0 = default 1/64, <0 = off)")
	flag.Parse()

	if *traceOut != "" {
		if err := runTrace(*traceOut, *traceFault, *traceSampling); err != nil {
			fmt.Fprintln(os.Stderr, "smarth-live:", err)
			os.Exit(1)
		}
		return
	}

	sweep := []float64{50, 100, 150}
	if *one > 0 {
		sweep = []float64{*one}
	}

	tb := metrics.NewTable(
		"live stack (64MB scaled) vs simulator (8GB paper scale), small cluster, two racks",
		"throttle", "live HDFS", "live SMARTH", "live impr", "sim impr")
	for _, mbps := range sweep {
		out, err := livebench.Run(livebench.Config{
			Preset:        ec2.SmallCluster,
			CrossRackMbps: mbps,
			Seed:          int64(mbps),
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "smarth-live:", err)
			os.Exit(1)
		}

		cfg := sim.Config{
			Preset:        ec2.SmallCluster,
			FileSize:      8 << 30,
			CrossRackMbps: mbps,
			Seed:          int64(mbps),
		}
		cfg.Mode = proto.ModeHDFS
		h, err := sim.Run(cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "smarth-live: sim:", err)
			os.Exit(1)
		}
		cfg.Mode = proto.ModeSmarth
		s, err := sim.Run(cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "smarth-live: sim:", err)
			os.Exit(1)
		}
		simImp := sim.Improvement(h.Duration, s.Duration)

		tb.Add(
			fmt.Sprintf("%.0fMbps", mbps),
			fmt.Sprintf("%.2fs", out.HDFS.Seconds()),
			fmt.Sprintf("%.2fs", out.Smarth.Seconds()),
			metrics.Pct(out.Improvement()),
			metrics.Pct(simImp),
		)
	}
	fmt.Print(tb.String())
	fmt.Println("\n(live numbers move real checksummed bytes through the full concurrent\n stack over a tc-shaped network; sim numbers are the paper-scale DES)")
}

// runTrace performs one fully instrumented SMARTH upload, prints the
// span timeline and metrics, and writes the span records as JSONL.
func runTrace(path string, fault bool, sampling int) error {
	out, err := livebench.TraceRun(livebench.TraceConfig{
		InjectFault:    fault,
		PacketSampling: sampling,
	})
	if err != nil {
		return err
	}

	fmt.Printf("traced SMARTH write: %s, %d recoveries", out.Duration.Round(0), out.Recoveries)
	if out.Victim != "" {
		fmt.Printf(" (froze %s mid-write)", out.Victim)
	}
	fmt.Println()
	fmt.Println()
	obs.RenderTimeline(os.Stdout, out.Spans)
	fmt.Println()
	out.Obs.Metrics.Render(os.Stdout)

	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := obs.WriteJSONL(f, out.Spans); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("\nwrote %d span records to %s\n", len(out.Spans), path)
	return nil
}
