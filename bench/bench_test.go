package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestQuantile(t *testing.T) {
	v := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ q, want float64 }{
		{0, 1}, {0.25, 3.25}, {0.5, 5.5}, {0.75, 7.75}, {0.99, 9.91}, {1, 10},
	} {
		if got := quantile(v, c.q); !near(got, c.want) {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := quantile([]float64{7}, 0.99); got != 7 {
		t.Errorf("quantile of one value = %v, want 7", got)
	}
	if got := quantile(nil, 0.5); !math.IsNaN(got) {
		t.Errorf("quantile of nothing = %v, want NaN", got)
	}
}

func TestSummarize(t *testing.T) {
	s := summarize([]float64{30, 10, 50, 20, 40}) // unsorted on purpose
	want := summary{Median: 30, Q1: 20, Q3: 40, Min: 10, Max: 50, N: 5}
	if s != want {
		t.Errorf("summarize = %+v, want %+v", s, want)
	}
	if got := s.spread(); !near(got, 20.0/30) {
		t.Errorf("spread = %v, want %v", got, 20.0/30)
	}
	if got := (summary{}).spread(); !math.IsInf(got, 1) {
		t.Errorf("spread of a zero median = %v, want +Inf", got)
	}
}

func TestSelfTimes(t *testing.T) {
	// One operation of 100 ns with two children, 10..40 and 30..70 (they
	// overlap by 10), and a grandchild inside the first.
	spans := []spanRec{
		{ID: 1, Trace: 1, Name: "op", Start: 0, End: 100},
		{ID: 2, Parent: 1, Trace: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Trace: 1, Name: "b", Start: 30, End: 70},
		{ID: 4, Parent: 2, Trace: 1, Name: "c", Start: 15, End: 25},
	}
	self := selfTimes(spans)
	for name, want := range map[string]float64{"op": 40, "a": 20, "b": 40, "c": 10} {
		if got := self[name]; len(got) != 1 || got[0] != want {
			t.Errorf("self time of %s = %v, want [%v]", name, got, want)
		}
	}
}

func TestLedgerSumsToTotal(t *testing.T) {
	for _, total := range []float64{4.0, 0.001} { // the second is over-attributed: the remainder goes negative
		rows := buildLedger(total, []ledgerRow{
			{Layer: "x", CallsPerGB: 49152, NsPerCall: 9000},
			{Layer: "y", CallsPerGB: 3072, NsPerCall: 250000},
			{Layer: "z", CallsPerGB: 0, NsPerCall: 123},
		})
		if len(rows) != 4 || rows[3].Layer != "unattributed" {
			t.Fatalf("ledger rows = %+v", rows)
		}
		if !near(rows[0].SPerGB, 49152*9000/1e9) {
			t.Errorf("row x = %v s/GB", rows[0].SPerGB)
		}
		sum := 0.0
		for _, r := range rows {
			sum += r.SPerGB
		}
		if !near(sum, total) {
			t.Errorf("rows sum to %v, want the total %v", sum, total)
		}
	}
}

func TestVerdict(t *testing.T) {
	m := func(better string, bound, q1, med, q3 float64) metricResult {
		return metricResult{metricDef{Better: better, Bound: bound}, summary{Median: med, Q1: q1, Q3: q3}}
	}
	for _, c := range []struct {
		name string
		a, b metricResult
		want string
	}{
		{"lower, 5% slower", m("lower", 0.10, 99, 100, 101), m("lower", 0.10, 104, 105, 106), verdictOK},
		{"lower, 15% slower", m("lower", 0.10, 99, 100, 101), m("lower", 0.10, 114, 115, 116), verdictWorse},
		{"lower, faster", m("lower", 0.10, 99, 100, 101), m("lower", 0.10, 49, 50, 51), verdictOK},
		{"higher, 15% less", m("higher", 0.10, 99, 100, 101), m("higher", 0.10, 84, 85, 86), verdictWorse},
		{"higher, more", m("higher", 0.10, 99, 100, 101), m("higher", 0.10, 119, 120, 121), verdictOK},
		{"spread wider than bound", m("lower", 0.10, 90, 100, 110), m("lower", 0.10, 99, 100, 101), verdictUnresolved},
		{"no bound", m("higher", 0, 99, 100, 101), m("higher", 0, 1, 2, 3), verdictUngated},
	} {
		if got := verdict(c.a, c.b); got != c.want {
			t.Errorf("%s: verdict = %s, want %s", c.name, got, c.want)
		}
	}
}

func toyOpts(t *testing.T) runOpts {
	t.Helper()
	if err := os.MkdirAll(scratchDir, 0o755); err != nil {
		t.Fatal(err)
	}
	return runOpts{seed: 1, seconds: 0.25, toy: true}
}

// TestSmoke runs every workload once at toy geometry: set-up, one short
// slice, and the slice's correctness check.
func TestSmoke(t *testing.T) {
	o := toyOpts(t)
	for _, w := range workloads {
		inst, err := w.setup(o)
		if err != nil {
			t.Fatalf("%s: set-up: %v", w.name, err)
		}
		out := inst.runSlice(time.Now().Add(50 * time.Millisecond))
		if err := inst.check(); err != nil {
			t.Errorf("%s: check: %v", w.name, err)
		}
		inst.close()
		if len(out.ops) == 0 || out.failed != 0 {
			t.Errorf("%s: %d ops completed, %d failed", w.name, len(out.ops), out.failed)
		}
		if out.meter.cpu <= 0 || out.meter.alloc == 0 {
			t.Errorf("%s: meter read cpu %v, alloc %d", w.name, out.meter.cpu, out.meter.alloc)
		}
	}
}

// TestTracedRun drives the traced path on a toy upload: spans at every
// client call, counts from the obs registry, and a ledger that sums.
func TestTracedRun(t *testing.T) {
	var buf bytes.Buffer
	tr, vals, ops, failed, err := traceWorkload(&buf, workloadByName("mem_write_r3"), toyOpts(t), map[string]float64{})
	if err != nil {
		t.Fatal(err)
	}
	if ops == 0 || failed != 0 {
		t.Errorf("%d ops, %d failed", ops, failed)
	}
	for _, name := range []string{"client.create_ms", "client.stream_ms", "client.close_ms", "client.open_ms", "client.read_ms"} {
		if vals[name] <= 0 {
			t.Errorf("%s = %v, want a positive self time", name, vals[name])
		}
	}
	for _, want := range []string{"datanode.packets_in=", "ledger: layer", "unattributed", "cpu_s_per_GB, measured"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("traced report lacks %q:\n%s", want, buf.String())
		}
	}
	for _, s := range tr.spans {
		if s.End < s.Start || s.Trace == 0 {
			t.Fatalf("malformed span %+v", s)
		}
	}
}

// TestContractMatchesProgram keeps BENCHMARK.json and the program's own
// tables from drifting apart: same workloads, same end-to-end metrics
// with the same units, directions and bounds, same per-layer metrics.
func TestContractMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &c); err != nil {
		t.Fatal(err)
	}
	if len(c.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(c.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if c.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json says %s, the program %s", i, c.Workloads[i].Name, w.name)
		}
	}
	if len(c.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the program %d", len(c.EndToEnd), len(endToEnd))
	}
	for i, d := range endToEnd {
		if c.EndToEnd[i] != d {
			t.Errorf("end-to-end metric %d: BENCHMARK.json says %+v, the program %+v", i, c.EndToEnd[i], d)
		}
	}
	if len(c.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the program %d", len(c.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		if c.PerLayer[i] != d.metricDef {
			t.Errorf("per-layer metric %d: BENCHMARK.json says %+v, the program %+v", i, c.PerLayer[i], d.metricDef)
		}
	}
}
