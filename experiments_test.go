package smarth

import (
	"strings"
	"testing"

	"repro/internal/sim"
)

// The registry names every figure of the evaluation once, refuses an
// unknown ID, and renders Table I (what smarth-bench prints).
func TestFacadeExperimentRegistry(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range sim.Experiments() {
		if e.ID == "" || e.Title == "" || e.Paper == "" || e.Run == nil {
			t.Fatalf("incomplete experiment: %+v", e)
		}
		if seen[e.ID] {
			t.Fatalf("duplicate experiment id %s", e.ID)
		}
		seen[e.ID] = true
	}
	for _, id := range []string{
		"figure5a", "figure5b", "figure5c", "figure5d", "figure5e", "figure5f",
		"figure6", "figure7", "figure8", "figure9",
		"figure10", "figure11a", "figure11b", "figure12a", "figure12b",
		"figure13",
	} {
		if !seen[id] {
			t.Errorf("experiment %s missing", id)
		}
	}
	if _, ok := sim.ExperimentByID("figure13"); !ok {
		t.Fatal("ExperimentByID(figure13) failed")
	}
	if _, ok := sim.ExperimentByID("figure99"); ok {
		t.Fatal("ExperimentByID accepted junk")
	}
	if sim.Table1() == "" {
		t.Fatal("Table1 empty")
	}
}

// TestExperimentScaledRun executes one scaled-down figure end to end and
// sanity-checks the formatting path.
func TestExperimentScaledRun(t *testing.T) {
	e, _ := sim.ExperimentByID("figure13")
	pts := e.Run(16) // 1/16th of the paper's sizes
	if len(pts) != 4 {
		t.Fatalf("points = %d, want 4", len(pts))
	}
	out := sim.FormatPoints(e, pts)
	for _, want := range []string{"figure13", "1GB", "8GB", "HDFS", "SMARTH"} {
		if !strings.Contains(out, want) {
			t.Fatalf("formatted output missing %q:\n%s", want, out)
		}
	}
	// SMARTH wins at the headline point even scaled down.
	head := pts[len(pts)-1]
	if head.Improvement() < 0.15 {
		t.Errorf("scaled hetero improvement = %.0f%%, want > 15%%", head.Improvement()*100)
	}
}
