package cluster

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/obs"
)

// tracedWrite uploads size bytes under SMARTH on the rigged hang cluster
// (every pipeline forms as dn1>dn2>dn3) with observability on in every
// component, freezing the mirror dn2 at the halfway point when fault is
// set, and returns the trace once the read-back verified.
func tracedWrite(t *testing.T, size int, fault bool) (*obs.Obs, []obs.SpanRecord, client.WriteStats) {
	t.Helper()
	o := obs.New(nil)
	_, fn, cl := startHangCluster(t, Config{DatanodeDataTimeout: 500 * time.Millisecond, Obs: o})
	// Registered after startHangCluster, so the thaw runs before
	// Cluster.Stop and a wedged node can shut down.
	t.Cleanup(func() { fn.Thaw("dn2") })
	data := randomData(7, size)
	w, err := cl.CreateSmarth("/trace-run", hangWriteOptions())
	if err != nil {
		t.Fatal(err)
	}
	dripWrite(t, w, data, func() {
		if fault {
			fn.Freeze("dn2")
		}
	})
	if err := w.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	fn.Thaw("dn2")
	verifyFile(t, cl, "/trace-run", data)
	return o, o.Tracer.Snapshot(), w.Stats()
}

// spansByName groups a trace by span name.
func spansByName(spans []obs.SpanRecord) map[string][]obs.SpanRecord {
	m := make(map[string][]obs.SpanRecord)
	for _, s := range spans {
		m[s.Name] = append(m[s.Name], s)
	}
	return m
}

func hasEvent(s obs.SpanRecord, name string) bool {
	for _, e := range s.Events {
		if e.Name == name {
			return true
		}
	}
	return false
}

// TestTraceCleanSpanTree runs a clean one-block 3-replica SMARTH write
// and asserts the exact write-path span tree it must produce: one
// "write" root, one "block" child, one "pipeline" grandchild carrying
// the rigged target order and an FNFA event — and that the tree survives
// a JSONL round trip.
func TestTraceCleanSpanTree(t *testing.T) {
	o, spans, st := tracedWrite(t, 256<<10, false)
	if st.Recoveries != 0 {
		t.Fatalf("clean run reported %d recoveries", st.Recoveries)
	}
	byName := spansByName(spans)
	if len(byName["write"]) != 1 || len(byName["block"]) != 1 || len(byName["pipeline"]) != 1 {
		t.Fatalf("span tree = %d write / %d block / %d pipeline spans, want 1/1/1 (spans: %+v)",
			len(byName["write"]), len(byName["block"]), len(byName["pipeline"]), spans)
	}
	if n := len(byName["recovery"]); n != 0 {
		t.Fatalf("clean run produced %d recovery spans", n)
	}
	write, blk, pipe := byName["write"][0], byName["block"][0], byName["pipeline"][0]
	if blk.Parent != write.ID || pipe.Parent != blk.ID {
		t.Fatalf("parentage broken: write=%d block.parent=%d pipeline.parent=%d block=%d",
			write.ID, blk.Parent, pipe.Parent, blk.ID)
	}
	if got := pipe.Attrs["targets"]; got != "dn1>dn2>dn3" {
		t.Fatalf("pipeline targets = %q, want rigged order dn1>dn2>dn3", got)
	}
	if !hasEvent(pipe, "fnfa") {
		t.Fatalf("pipeline span has no fnfa event: %+v", pipe.Events)
	}
	for _, s := range spans {
		if s.Status != "" {
			t.Fatalf("span %s#%d has status %q on a clean run", s.Name, s.ID, s.Status)
		}
		if s.EndUS == 0 {
			t.Fatalf("span %s#%d never ended", s.Name, s.ID)
		}
	}

	// The JSONL export must reproduce the same records.
	var buf bytes.Buffer
	if err := obs.WriteJSONL(&buf, spans); err != nil {
		t.Fatal(err)
	}
	back, err := obs.ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(spans) {
		t.Fatalf("JSONL round trip: %d spans back, want %d", len(back), len(spans))
	}

	// Metrics followed the write: the client observed FNFA latency and
	// the first datanode committed the block.
	var metrics strings.Builder
	o.Metrics.Render(&metrics)
	for _, want := range []string{"client/client", "datanode/dn1", "fnfa_latency_ns", "blocks_committed"} {
		if !strings.Contains(metrics.String(), want) {
			t.Errorf("metrics dump missing %q:\n%s", want, metrics.String())
		}
	}
}

// TestTraceFaultProducesRecoverySpan wedges the mirror datanode
// mid-write and asserts the trace records the Algorithm 4 episode: a
// failed or error-marked pipeline, a recovery span parented under a
// block span, and more pipelines than blocks (the rebuilt ones).
func TestTraceFaultProducesRecoverySpan(t *testing.T) {
	o, spans, st := tracedWrite(t, 512<<10, true)
	if st.Recoveries == 0 {
		t.Fatal("fault run reported no recoveries")
	}
	byName := spansByName(spans)
	if len(byName["write"]) != 1 {
		t.Fatalf("%d write spans, want 1", len(byName["write"]))
	}
	blocks, pipes, recs := byName["block"], byName["pipeline"], byName["recovery"]
	if len(blocks) != 2 { // 512 KiB file in 256 KiB blocks
		t.Fatalf("%d block spans, want 2", len(blocks))
	}
	if len(recs) == 0 {
		t.Fatal("no recovery span recorded for an injected fault")
	}
	if len(pipes) <= len(blocks) {
		t.Fatalf("%d pipeline spans for %d blocks: recovery must have opened replacements", len(pipes), len(blocks))
	}
	blockIDs := make(map[int64]bool)
	for _, b := range blocks {
		blockIDs[b.ID] = true
	}
	for _, r := range recs {
		if !blockIDs[r.Parent] {
			t.Fatalf("recovery span %d parented under %d, not a block span", r.ID, r.Parent)
		}
		if r.Attrs["cause"] == "" {
			t.Fatalf("recovery span %d has no cause attribute", r.ID)
		}
	}
	// At least one pipeline failed (error status) or the block recorded
	// the failure event before recovery.
	failed := false
	for _, p := range pipes {
		if p.Status == "error" {
			failed = true
		}
	}
	for _, b := range blocks {
		if hasEvent(b, "pipeline_failed") {
			failed = true
		}
	}
	if !failed {
		t.Fatal("no pipeline failure recorded anywhere in the trace")
	}

	// The rendered timeline must show the episode end to end.
	var tl strings.Builder
	obs.RenderTimeline(&tl, spans)
	for _, want := range []string{"write#", "block#", "pipeline#", "recovery#"} {
		if !strings.Contains(tl.String(), want) {
			t.Errorf("timeline missing %q:\n%s", want, tl.String())
		}
	}

	// The pipeline-recovery counters moved: the client recovered and the
	// namenode re-provisioned at least one block.
	var metrics strings.Builder
	o.Metrics.Render(&metrics)
	if !strings.Contains(metrics.String(), "recoveries") || !strings.Contains(metrics.String(), "block_recoveries") {
		t.Errorf("metrics dump missing recovery counters:\n%s", metrics.String())
	}
}
