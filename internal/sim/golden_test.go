package sim

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"regexp"
	"testing"

	"repro/internal/ec2"
)

var update = flag.Bool("update", false, "re-record testdata/experiments.golden.json")

const goldenPath = "testdata/experiments.golden.json"

// goldenScale divides the paper's file sizes so the whole evaluation
// replays in a few seconds while every sweep keeps several blocks.
const goldenScale = 16

// goldenEntry is one line of the golden file.
type goldenEntry struct {
	ID     string  `json:"id"`
	Points []Point `json:"points"`
}

// throttledExt is the workload most extension entries vary: the small
// cluster behind a 50 Mbps cross-rack throttle.
func throttledExt(edit func(*Config)) Config {
	cfg := Config{Preset: ec2.SmallCluster, FileSize: 8 * gb / goldenScale, CrossRackMbps: 50, Seed: 9}
	edit(&cfg)
	return cfg
}

// The two extension entries TestScratchHygiene replays as well.
func extFault(c *Config) {
	c.PipelineFaults = []PipelineFault{{Block: 1, AfterPackets: 300}, {Block: 3, AfterPackets: 7, BadIndex: 1}}
}
func extTraced(c *Config) { c.Trace = true; c.FileSize = 256 << 20 }

// extensionEntries are the runs Experiments() does not list but the
// test suite leans on: the ablation knobs, an injected pipeline fault and
// a traced run (whose Result carries the span records themselves).
func extensionEntries() []goldenEntry {
	pair := func(id string, edit func(*Config)) goldenEntry {
		return goldenEntry{ID: id, Points: runPoints([]point{{id, throttledExt(edit)}})}
	}
	return []goldenEntry{
		pair("ext-no-localopt", func(c *Config) { c.DisableLocalOpt = true }),
		pair("ext-no-globalopt", func(c *Config) { c.DisableGlobalOpt = true; c.NodeLimitMbps = map[int]float64{0: 50} }),
		pair("ext-maxpipelines-1", func(c *Config) { c.MaxPipelines = 1 }),
		pair("ext-fault", extFault),
		pair("ext-traced", extTraced),
	}
}

// TestExperimentsGolden replays every figure of the evaluation plus the
// extension runs and compares the results byte for byte with what the
// simulator produced before its event core was rebuilt (PR 17): virtual
// times, placement counts, per-node byte counters and trace spans are
// all a function of the event firing order, so any reordering shows.
// After a deliberate model change: go test ./internal/sim -run
// TestExperimentsGolden -update.
func TestExperimentsGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("replays the whole evaluation")
	}
	var entries []goldenEntry
	for _, e := range Experiments() {
		entries = append(entries, goldenEntry{ID: e.ID, Points: e.Run(goldenScale)})
	}
	entries = append(entries, extensionEntries()...)

	var got bytes.Buffer
	enc := json.NewEncoder(&got) // one entry per line, so a diff names the figure
	for _, e := range entries {
		if err := enc.Encode(e); err != nil {
			t.Fatal(err)
		}
	}
	if *update {
		if err := os.WriteFile(goldenPath, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	// The file was recorded when Result.Pipelines still held a view
	// derived from Trace (which the file pins too); the field is always
	// nil now, so the two traced entries' arrays compare as null.
	want = regexp.MustCompile(`"Pipelines":\[[^\]]*\]`).ReplaceAll(want, []byte(`"Pipelines":null`))
	if bytes.Equal(got.Bytes(), want) {
		return
	}
	gotLines, wantLines := bytes.Split(got.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
	for i, e := range entries {
		if i >= len(wantLines) || !bytes.Equal(gotLines[i], wantLines[i]) {
			t.Fatalf("%s differs from %s (line %d); re-record with -update only after a deliberate model change", e.ID, goldenPath, i+1)
		}
	}
	t.Fatalf("%s has %d lines, the run produced %d", goldenPath, len(wantLines)-1, len(entries))
}
