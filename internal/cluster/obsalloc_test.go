package cluster

import (
	"fmt"
	"io"
	"runtime"
	"testing"

	"repro/internal/client"
	"repro/internal/obs"
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
