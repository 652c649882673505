package sim

import (
	"sort"
	"strings"
	"testing"

	"repro/internal/ec2"
	"repro/internal/obs"
	"repro/internal/proto"
)

// blockSpans returns the trace's per-block spans: one per block, open
// from the block's launch until its pipeline drained.
func blockSpans(trace []obs.SpanRecord) []obs.SpanRecord {
	var out []obs.SpanRecord
	for _, r := range trace {
		if r.Name == "block" {
			out = append(out, r)
		}
	}
	return out
}

// fnfaUS returns when the block's FNFA arrived, or its end when it never
// got one (HDFS).
func fnfaUS(r obs.SpanRecord) int64 {
	for _, e := range r.Events {
		if e.Name == "fnfa" {
			return e.TUS
		}
	}
	return r.EndUS
}

// peakOverlap is the largest number of spans open at one instant; a span
// ending exactly when another starts does not overlap it.
func peakOverlap(spans []obs.SpanRecord) int {
	type edge struct {
		at    int64
		delta int
	}
	var edges []edge
	for _, s := range spans {
		edges = append(edges, edge{s.StartUS, +1}, edge{s.EndUS, -1})
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].at != edges[j].at {
			return edges[i].at < edges[j].at
		}
		return edges[i].delta < edges[j].delta // close before open at ties
	})
	cur, peak := 0, 0
	for _, e := range edges {
		cur += e.delta
		peak = max(peak, cur)
	}
	return peak
}

func TestTraceSpansRecorded(t *testing.T) {
	cfg := Config{
		Preset: ec2.SmallCluster, FileSize: 512 << 20, // 8 blocks
		Mode: proto.ModeSmarth, CrossRackMbps: 50, Trace: true, Seed: 7,
	}
	r := run(t, cfg)
	spans := blockSpans(r.Trace)
	if len(spans) != r.Blocks {
		t.Fatalf("block spans = %d, want %d", len(spans), r.Blocks)
	}
	for _, s := range spans {
		if f := fnfaUS(s); !(s.StartUS <= f && f <= s.EndUS) {
			t.Fatalf("span ordering broken: %+v", s)
		}
		if s.Attrs["first"] == "" {
			t.Fatalf("span missing first datanode: %+v", s)
		}
	}
	// Under heavy throttle, pipelines must actually overlap...
	if got := peakOverlap(spans); got < 2 {
		t.Fatalf("peak overlap = %d, want >= 2 under throttle", got)
	} else if got > r.PeakPipelines {
		// ...and never beyond the cap reported by the run.
		t.Fatalf("span overlap %d exceeds run's peak %d", got, r.PeakPipelines)
	}
	// The one renderer (obs) draws a simulated trace too.
	var tl strings.Builder
	obs.RenderTimeline(&tl, r.Trace)
	if !strings.Contains(tl.String(), "block") {
		t.Fatalf("timeline has no block rows:\n%s", tl.String())
	}
}

func TestHDFSSpansNeverOverlap(t *testing.T) {
	cfg := Config{
		Preset: ec2.SmallCluster, FileSize: 256 << 20,
		Mode: proto.ModeHDFS, Trace: true, Seed: 7,
	}
	r := run(t, cfg)
	spans := blockSpans(r.Trace)
	if got := peakOverlap(spans); got != 1 || r.PeakPipelines != 1 {
		t.Fatalf("HDFS peak overlap = %d, PeakPipelines = %d, want 1 (stop-and-wait)", got, r.PeakPipelines)
	}
	for _, s := range spans {
		if fnfaUS(s) != s.EndUS {
			t.Fatalf("HDFS span has an FNFA: %+v", s)
		}
	}
}

func TestTraceOffByDefault(t *testing.T) {
	r := run(t, Config{Preset: ec2.SmallCluster, FileSize: 128 << 20, Mode: proto.ModeSmarth})
	if r.Trace != nil {
		t.Fatal("spans recorded without Trace")
	}
}

func TestPeakOverlapEdgeCases(t *testing.T) {
	if peakOverlap(nil) != 0 {
		t.Fatal("peakOverlap(nil) != 0")
	}
	a := obs.SpanRecord{StartUS: 0, EndUS: 10}
	b := obs.SpanRecord{StartUS: 10, EndUS: 20} // touching, not overlapping
	if peakOverlap([]obs.SpanRecord{a, b}) != 1 {
		t.Fatal("touching spans counted as concurrent")
	}
	c := obs.SpanRecord{StartUS: 5, EndUS: 15}
	if peakOverlap([]obs.SpanRecord{a, b, c}) != 2 {
		t.Fatal("overlap count wrong")
	}
}
