package hotbench

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"

	"repro/internal/checksum"
	"repro/internal/client"
	"repro/internal/obs"
	"repro/internal/proto"
)

// The HotPath benchmark family: run with
//
//	go test -run=NONE -bench=HotPath -benchmem ./internal/hotbench/
//
// or `make bench-hotpath`, which records the results in
// BENCH_hotpath.json.

func BenchmarkHotPathPacketRoundTrip(b *testing.B) { PacketRoundTrip(b) }

func BenchmarkHotPathPacketRoundTripObs(b *testing.B) { PacketRoundTripObs(b) }

func BenchmarkHotPathAckRoundTrip(b *testing.B) { AckRoundTrip(b) }

func BenchmarkHotPathLiveWrite64MB(b *testing.B) {
	for _, mode := range []proto.WriteMode{proto.ModeSmarth, proto.ModeHDFS} {
		b.Run(mode.String(), func(b *testing.B) {
			LiveWrite(b, mode, 64<<20)
		})
	}
}

func BenchmarkHotPathLiveRead64MB(b *testing.B) {
	b.Run(proto.ModeSmarth.String(), func(b *testing.B) {
		LiveRead(b, client.ReadOptions{}, 64<<20)
	})
	b.Run(proto.ModeHDFS.String(), func(b *testing.B) {
		LiveRead(b, client.ReadOptions{DisablePrefetch: true, HedgeAfter: -1}, 64<<20)
	})
}

func BenchmarkHotPathRawCopy64MBTCP(b *testing.B) { RawCopyTCP(b, 64<<20) }

func BenchmarkHotPathLiveWrite64MBTCP(b *testing.B) {
	b.Run("SMARTH-R1", func(b *testing.B) { LiveWriteTCP(b, proto.ModeSmarth, 64<<20, 1) })
	b.Run("SMARTH-R3", func(b *testing.B) { LiveWriteTCP(b, proto.ModeSmarth, 64<<20, 3) })
	b.Run("HDFS-R3", func(b *testing.B) { LiveWriteTCP(b, proto.ModeHDFS, 64<<20, 3) })
}

func BenchmarkHotPathLiveRead64MBTCP(b *testing.B) {
	b.Run("SMARTH", func(b *testing.B) { LiveReadTCP(b, client.ReadOptions{}, 64<<20) })
}

func BenchmarkHotPathCtrlPlane64W(b *testing.B) {
	b.Run("batch", func(b *testing.B) { ControlPlane(b, true) })
	b.Run("nobatch", func(b *testing.B) { ControlPlane(b, false) })
}

func BenchmarkHotPathLiveWrite64MBObs(b *testing.B) {
	for _, mode := range []proto.WriteMode{proto.ModeSmarth, proto.ModeHDFS} {
		b.Run(mode.String(), func(b *testing.B) {
			LiveWriteObs(b, mode, 64<<20, obs.New(nil))
		})
	}
}

// TestInstrumentedCodecZeroAlloc proves the PR 2 zero-allocation
// guarantee survives the observability layer: one packet round trip with
// ConnMetrics attached and a span recording sampled packet events must
// not allocate at steady state. (The sampled event append amortizes to
// ~0 through slice growth doubling; the tolerance covers it.)
func TestInstrumentedCodecZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unreliable under -race (sync.Pool drops puts)")
	}
	o := obs.New(nil)
	data := make([]byte, proto.DefaultPacketSize)
	var sums []uint32
	var buf bytes.Buffer
	c := proto.NewConn(&buf)
	c.SetMetrics(obs.NewConnMetrics(o.Component("hotbench")))
	span := o.StartSpan("pipeline", nil)
	defer span.End()

	var seq int64
	roundTrip := func() {
		sums = checksum.AppendSums(sums[:0], data, checksum.DefaultChunkSize)
		pkt := proto.Packet{Seqno: seq, Sums: sums, Data: data}
		if err := c.WritePacket(&pkt); err != nil {
			t.Fatal(err)
		}
		span.Packet("send", seq)
		out, err := c.ReadPacket()
		if err != nil {
			t.Fatal(err)
		}
		out.Release()
		seq++
	}
	for i := 0; i < 200; i++ { // warm the pools and the event buffer
		roundTrip()
	}
	avg := testing.AllocsPerRun(200, roundTrip)
	if avg > 0.05 {
		t.Fatalf("instrumented packet round trip allocates %.2f times per packet, want ~0", avg)
	}
}

// benchBaseline reads a benchmark's "current" record from the repo's
// BENCH_hotpath.json trajectory file.
func benchBaseline(t *testing.T, name string) int64 {
	t.Helper()
	raw, err := os.ReadFile("../../BENCH_hotpath.json")
	if err != nil {
		t.Skipf("no BENCH_hotpath.json baseline: %v", err)
	}
	var doc struct {
		Current []struct {
			Name   string `json:"name"`
			BPerOp int64  `json:"b_per_op"`
		} `json:"current"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("parse BENCH_hotpath.json: %v", err)
	}
	for _, e := range doc.Current {
		if e.Name == name {
			return e.BPerOp
		}
	}
	t.Skipf("no %q entry in BENCH_hotpath.json", name)
	return 0
}

// TestLiveWriteObsAllocBudget uploads 64 MB under SMARTH with full
// observability on and requires the allocated bytes per op to stay
// within 10% of the recorded uninstrumented baseline — the end-to-end
// proof that always-on metrics and tracing do not reintroduce per-packet
// garbage.
func TestLiveWriteObsAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is not comparable under -race")
	}
	if testing.Short() {
		t.Skip("64 MB live upload; skipped in -short")
	}
	base := benchBaseline(t, "LiveWrite64MB/SMARTH")
	res := testing.Benchmark(func(b *testing.B) {
		LiveWriteObs(b, proto.ModeSmarth, 64<<20, obs.New(nil))
	})
	budget := base + base/10
	if got := res.AllocedBytesPerOp(); got > budget {
		t.Fatalf("instrumented live write allocates %d B/op, budget %d (baseline %d +10%%)", got, budget, base)
	}
	t.Logf("instrumented live write: %d B/op (baseline %d, budget %d)", res.AllocedBytesPerOp(), base, budget)
}
