package cluster

import (
	"fmt"
	"io"
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/obs"
	"repro/internal/proto"
	"repro/internal/workload"
)

// uploadAllocBytes boots a 9-datanode in-memory cluster sharing o (nil =
// uninstrumented), uploads one untimed 64 MB SMARTH file to warm the
// buffer pools, and returns the bytes the whole process allocates per
// further upload.
func uploadAllocBytes(t *testing.T, o *obs.Obs) uint64 {
	t.Helper()
	const fileBytes, uploads = 64 << 20, 3
	c, err := Start(Config{NumDatanodes: 9, Seed: 1, Obs: o})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	cl, err := c.NewClient("obsalloc-client")
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	opts := client.WriteOptions{Replication: 3, BlockSize: 1 << 20, PacketSize: 64 << 10}
	cbuf := make([]byte, 64<<10)
	upload := func(path string) {
		w, err := cl.CreateSmarth(path, opts)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := io.CopyBuffer(struct{ io.Writer }{w}, workload.NewReader(1, fileBytes), cbuf); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	}
	upload("/obsalloc/warmup")
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < uploads; i++ {
		upload(fmt.Sprintf("/obsalloc/%d", i))
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uploads
}

// TestLiveWriteObsAllocBudget uploads the same 64 MB file with
// observability off and fully on, and requires the instrumented run to
// allocate at most 10% more bytes per upload — the end-to-end proof that
// always-on metrics and tracing do not reintroduce per-packet garbage.
func TestLiveWriteObsAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is not comparable under -race")
	}
	if testing.Short() {
		t.Skip("64 MB live uploads; skipped in -short")
	}
	base := uploadAllocBytes(t, nil)
	got := uploadAllocBytes(t, obs.New(nil))
	budget := base + base/10
	if got > budget {
		t.Fatalf("instrumented live write allocates %d B/op, budget %d (uninstrumented %d +10%%)", got, budget, base)
	}
	t.Logf("instrumented live write: %d B/op (uninstrumented %d, budget %d)", got, base, budget)
}

// writeAllocBytes returns the bytes the whole process allocates to
// upload one 8 × 1 MB R3 file and delete it again (waiting until every
// datanode has dropped its replicas, which is when MemStore recycles
// their buffers), after two such files warmed the pools.
func writeAllocBytes(t *testing.T, mode proto.WriteMode) uint64 {
	t.Helper()
	const fileBytes = 8 << 20
	c, err := Start(Config{NumDatanodes: 9, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	cl, err := c.NewClient("alloc-client")
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	opts := client.WriteOptions{Replication: 3, BlockSize: 1 << 20, PacketSize: 64 << 10}
	cbuf := make([]byte, 64<<10)
	uploadAndDelete := func(path string) {
		w, err := create(cl, path, opts, mode)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := io.CopyBuffer(struct{ io.Writer }{w}, workload.NewReader(1, fileBytes), cbuf); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		if ok, err := cl.Delete(path); err != nil || !ok {
			t.Fatalf("delete %s: %v, %v", path, ok, err)
		}
		for start := time.Now(); ; time.Sleep(5 * time.Millisecond) {
			var held int64
			for _, dn := range c.DNs {
				held += dn.Store().UsedBytes()
			}
			if held == 0 {
				return
			}
			if time.Since(start) > 10*time.Second {
				t.Fatalf("datanodes still hold %d bytes of the deleted %s", held, path)
			}
		}
	}
	uploadAndDelete("/alloc/warmup0")
	uploadAndDelete("/alloc/warmup1")
	// The cheapest of three, with the collector held off: a garbage
	// collection that happens to empty the pools mid-file is weather (on
	// a busy machine it can hit all three), re-buying buffers for every
	// pipeline would show in all of them.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	best := ^uint64(0)
	for i := 0; i < 3; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		uploadAndDelete(fmt.Sprintf("/alloc/measured%d", i))
		runtime.ReadMemStats(&after)
		best = min(best, after.TotalAlloc-before.TotalAlloc)
	}
	return best
}

// TestLiveWriteAllocBudget is the regression guard for the pooled write
// path: a new pipeline per block must not mean new rings, replica
// buffers and staging blocks per block. Uploading 8 MB three times over
// used to allocate ≈5× the payload; with everything block- or
// ring-sized drawn from bufpool a warm cluster allocated a tenth of it
// (≈ 800 KB), and with 1 KB conn read buffers, pooled store checksums
// and a pooled per-block checksum buffer on the client it reads ≈ 250 KB
// (3 % of the payload) in either mode. The budget is that reading plus
// 10 %: an 8 KB reader per conn or a []uint32 per replica coming back
// adds 190 KB or more.
func TestLiveWriteAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is not comparable under -race")
	}
	const budget = 275 << 10
	for _, mode := range []proto.WriteMode{proto.ModeSmarth, proto.ModeHDFS} {
		got := writeAllocBytes(t, mode)
		if got > budget {
			t.Errorf("%s: 8 MB R3 upload + delete allocates %d B, budget %d", mode, got, budget)
		}
		t.Logf("%s: 8 MB R3 upload + delete allocates %d B (budget %d)", mode, got, budget)
	}
}

// BenchmarkLiveWrite moves 4 MB R3 files through the full concurrent
// stack (checksums, pipelines, acks) on the unshaped in-memory cluster
// the budgets above boot, under both protocols. `make profile` and the
// CI profile job run it under pprof; the gated numbers are bench/'s.
func BenchmarkLiveWrite(b *testing.B) {
	for _, mode := range []proto.WriteMode{proto.ModeHDFS, proto.ModeSmarth} {
		b.Run(mode.String(), func(b *testing.B) {
			c, err := Start(Config{NumDatanodes: 9, Seed: 1})
			if err != nil {
				b.Fatal(err)
			}
			defer c.Stop()
			cl, err := c.NewClient("bench-client")
			if err != nil {
				b.Fatal(err)
			}
			data := make([]byte, 4<<20)
			opts := client.WriteOptions{Replication: 3, BlockSize: 1 << 20, PacketSize: 64 << 10}
			b.SetBytes(int64(len(data)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w, err := create(cl, fmt.Sprintf("/bench/f%d", i), opts, mode)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := w.Write(data); err != nil {
					b.Fatal(err)
				}
				if err := w.Close(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
