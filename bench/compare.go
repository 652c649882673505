package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"text/tabwriter"
)

// Verdicts of one (workload, metric) row of a comparison.
const (
	verdictOK         = "ok"         // B's median is no worse than A's by more than the bound
	verdictWorse      = "worse"      // it is
	verdictUnresolved = "unresolved" // a side's own quartile spread is wider than the bound: the data cannot tell
	verdictUngated    = "-"          // the metric has no bound
)

// worseBy is how much worse b is than a, as a share of a, in the
// direction the metric counts as worse.
func worseBy(better string, a, b float64) float64 {
	if better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

func verdict(a, b metricResult) string {
	switch {
	case a.Bound == 0:
		return verdictUngated
	case max(a.spread(), b.spread()) > a.Bound:
		return verdictUnresolved
	case worseBy(a.Better, a.Median, b.Median) > a.Bound:
		return verdictWorse
	}
	return verdictOK
}

func readRunSet(path string) (*runSet, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var set runSet
	if err := json.Unmarshal(b, &set); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &set, nil
}

// compareFiles prints one row per (workload, metric) present in both
// result sets, A as the parent and B as the change, and fails when any
// row is worse.
func compareFiles(w io.Writer, pathA, pathB string) error {
	a, err := readRunSet(pathA)
	if err != nil {
		return err
	}
	b, err := readRunSet(pathB)
	if err != nil {
		return err
	}
	if a.Seconds != b.Seconds {
		return fmt.Errorf("%s measured %g s regions and %s %g s: results of different lengths are not comparable", pathA, a.Seconds, pathB, b.Seconds)
	}
	byName := make(map[string]*workloadResult)
	for _, wr := range b.Workloads {
		byName[wr.Workload] = wr
	}
	counts := make(map[string]int)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tbetter\tA median\tA q1..q3\tB median\tB q1..q3\tB worse by\tbound\tverdict\t")
	for _, wa := range a.Workloads {
		wb := byName[wa.Workload]
		if wb == nil {
			continue
		}
		names := make([]string, 0, len(wa.Metrics))
		for name := range wa.Metrics {
			if _, ok := wb.Metrics[name]; ok {
				names = append(names, name)
			}
		}
		sort.Strings(names)
		for _, name := range names {
			ma, mb := wa.Metrics[name], wb.Metrics[name]
			v := verdict(ma, mb)
			counts[v]++
			bound := "-"
			if ma.Bound > 0 {
				bound = fmt.Sprintf("%.0f%%", 100*ma.Bound)
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%.4g\t%.4g..%.4g\t%.4g\t%.4g..%.4g\t%+.1f%%\t%s\t%s\t\n",
				wa.Workload, name, ma.Unit, ma.Better, ma.Median, ma.Q1, ma.Q3, mb.Median, mb.Q1, mb.Q3,
				100*worseBy(ma.Better, ma.Median, mb.Median), bound, v)
		}
	}
	tw.Flush()
	fmt.Fprintf(w, "%d ok, %d worse, %d unresolved, %d ungated\n",
		counts[verdictOK], counts[verdictWorse], counts[verdictUnresolved], counts[verdictUngated])
	if counts[verdictWorse] > 0 {
		return fmt.Errorf("%d rows worse than their bound", counts[verdictWorse])
	}
	return nil
}
