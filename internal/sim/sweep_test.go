package sim

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"testing"
	"time"

	"repro/internal/ec2"
	"repro/internal/proto"
)

const sweepPath = "testdata/sweep.golden"

// sweepSeeds is how many configs TestSweepGolden draws.
const sweepSeeds = 400

// sweepConfig draws one small config from seed: every knob of Config that
// shapes the packet path (preset, sizes, replication, mode, racks, hop
// latency, throttles, disk and production rates, the pipeline cap, one
// pipeline fault) and tracing, so that between them the runs reach every
// branch of the transport model, recovery included.
func sweepConfig(seed int64) Config {
	r := rand.New(rand.NewSource(seed))
	cfg := Config{
		Preset:      ec2.Presets[r.Intn(len(ec2.Presets))],
		Mode:        []proto.WriteMode{proto.ModeHDFS, proto.ModeSmarth}[r.Intn(2)],
		PacketSize:  []int64{4 << 10, 16 << 10, 64 << 10, 8<<10 + r.Int63n(56<<10)}[r.Intn(4)],
		Replication: 1 + r.Intn(3),
		SingleRack:  r.Intn(4) == 0,
		Seed:        seed,
		Trace:       r.Intn(4) == 0,
	}
	cfg.BlockSize = cfg.PacketSize * (1 + r.Int63n(24))
	if r.Intn(2) == 0 {
		cfg.BlockSize += r.Int63n(cfg.PacketSize) // a short last packet per block
	}
	blocks := 1 + r.Int63n(8)
	cfg.FileSize = blocks * cfg.BlockSize
	if r.Intn(2) == 0 {
		cfg.FileSize -= r.Int63n(cfg.BlockSize) // a short last block
	}
	if r.Intn(3) > 0 {
		cfg.HopLatency = 1 + time.Duration(r.Int63n(int64(2*time.Millisecond)))
	}
	if r.Intn(2) == 0 {
		cfg.CrossRackMbps = float64(20 + r.Intn(300))
	}
	if r.Intn(3) == 0 {
		cfg.NodeLimitMbps = map[int]float64{}
		for n := 1 + r.Intn(4); n > 0; n-- {
			cfg.NodeLimitMbps[r.Intn(9)] = float64(30 + r.Intn(200))
		}
	}
	if r.Intn(3) == 0 {
		cfg.DiskMBps = float64(10 + r.Intn(300))
	}
	switch r.Intn(4) {
	case 0:
		// Slower than the NICs: packets reach the datanodes while the
		// block is still being produced, so a fault lands mid-stream.
		cfg.ProductionMBps = float64(1 + r.Intn(40))
	case 1:
		cfg.ProductionMBps = float64(40 + r.Intn(1000))
	}
	if r.Intn(3) == 0 {
		cfg.MaxPipelines = 1 + r.Intn(4)
	}
	if r.Intn(2) == 0 {
		perBlock := int((cfg.BlockSize + cfg.PacketSize - 1) / cfg.PacketSize)
		cfg.PipelineFaults = []PipelineFault{{
			Block:        r.Intn(int(blocks)),
			AfterPackets: r.Intn(perBlock + 1),
			BadIndex:     r.Intn(cfg.Replication),
		}}
	}
	return cfg
}

// sweepLine is seed's line of the golden file: the run's error, then its
// Result with Trace replaced by a hash of the spans.
func sweepLine(sc *scratch, seed int64) ([]byte, error) {
	r, runErr := sc.run(sweepConfig(seed))
	trace, err := json.Marshal(r.Trace)
	if err != nil {
		return nil, err
	}
	h := fnv.New64a()
	h.Write(trace)
	r.Trace = nil
	result, err := json.Marshal(r)
	if err != nil {
		return nil, err
	}
	return fmt.Appendf(nil, "seed %d err=%v trace=%016x %s\n", seed, runErr, h.Sum64(), result), nil
}

// TestSweepGolden replays sweepSeeds seeded configs, each a few blocks of
// a few dozen packets, on one scratch and compares every line with
// testdata/sweep.golden byte for byte. The figures pin the paper's
// workloads; this pins the corners between them (short packets and
// blocks, R1, slow disks, hop latencies to the nanosecond, faults that
// recover, and faults set past the end of their block that never fire).
// A performance change to the model must leave the file as it is;
// re-record it with -update only after a deliberate model change.
func TestSweepGolden(t *testing.T) {
	sc := newScratch()
	var got bytes.Buffer
	for seed := int64(1); seed <= sweepSeeds; seed++ {
		line, err := sweepLine(sc, seed)
		if err != nil {
			t.Fatal(err)
		}
		got.Write(line)
	}
	if *update {
		if err := os.WriteFile(sweepPath, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(sweepPath)
	if err != nil {
		t.Fatal(err)
	}
	gotLines, wantLines := bytes.Split(got.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
	if len(gotLines) != len(wantLines) {
		t.Fatalf("%s has %d lines, the sweep produced %d", sweepPath, len(wantLines)-1, len(gotLines)-1)
	}
	for i := range gotLines {
		if !bytes.Equal(gotLines[i], wantLines[i]) {
			t.Fatalf("seed %d differs from %s:\n got: %s\nwant: %s", i+1, sweepPath, gotLines[i], wantLines[i])
		}
	}
}
