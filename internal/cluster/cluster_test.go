package cluster

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/proto"
	"repro/internal/storage"
)

// testWriteOptions uses small blocks and packets so tests move real bytes
// through full pipelines quickly.
func testWriteOptions() client.WriteOptions {
	return client.WriteOptions{
		Replication: 3,
		BlockSize:   256 << 10, // 256 KiB blocks
		PacketSize:  16 << 10,  // 16 KiB packets
	}
}

func randomData(seed int64, n int) []byte {
	data := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(data)
	return data
}

func startTestCluster(t *testing.T, numDN int) *Cluster {
	t.Helper()
	c, err := Start(Config{
		NumDatanodes: numDN,
		RackFor: func(i int) string {
			if i%2 == 0 {
				return "/rack-a"
			}
			return "/rack-b"
		},
		Seed: 7,
		Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Stop)
	return c
}

// create opens path for writing under the given protocol.
func create(cl *client.Client, path string, opts client.WriteOptions, mode proto.WriteMode) (client.Writer, error) {
	if mode == proto.ModeSmarth {
		return cl.CreateSmarth(path, opts)
	}
	return cl.CreateHDFS(path, opts)
}

func writeFile(t *testing.T, cl *client.Client, path string, data []byte, mode proto.WriteMode) {
	t.Helper()
	writeFileWith(t, cl, path, data, testWriteOptions(), mode)
}

func writeFileWith(t *testing.T, cl *client.Client, path string, data []byte, opts client.WriteOptions, mode proto.WriteMode) {
	t.Helper()
	w, err := create(cl, path, opts, mode)
	if err != nil {
		t.Fatalf("create %s: %v", path, err)
	}
	// Write in uneven chunks to exercise buffering.
	rng := rand.New(rand.NewSource(99))
	for off := 0; off < len(data); {
		n := rng.Intn(50_000) + 1
		if off+n > len(data) {
			n = len(data) - off
		}
		if _, err := w.Write(data[off : off+n]); err != nil {
			t.Fatalf("write %s: %v", path, err)
		}
		off += n
	}
	if err := w.Close(); err != nil {
		t.Fatalf("close %s: %v", path, err)
	}
}

func verifyFile(t *testing.T, cl *client.Client, path string, want []byte) {
	t.Helper()
	got, err := cl.ReadAll(path)
	if err != nil {
		t.Fatalf("read %s: %v", path, err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s: read back %d bytes, want %d (content mismatch at %d)",
			path, len(got), len(want), firstDiff(got, want))
	}
}

func firstDiff(a, b []byte) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}

func TestHDFSWriteReadRoundTrip(t *testing.T) {
	c := startTestCluster(t, 9)
	cl, err := c.NewClient("client")
	if err != nil {
		t.Fatal(err)
	}
	data := randomData(1, 1<<20+12345) // ~1 MiB: 5 blocks, ragged tail
	writeFile(t, cl, "/hdfs-file", data, proto.ModeHDFS)
	verifyFile(t, cl, "/hdfs-file", data)

	info, err := cl.GetFileInfo("/hdfs-file")
	if err != nil {
		t.Fatal(err)
	}
	if !info.Complete || info.Len != int64(len(data)) || info.NumBlocks != 5 {
		t.Fatalf("file info = %+v", info)
	}
	roundTripSmallPackets(t, cl, proto.ModeHDFS)
}

func TestSmarthWriteReadRoundTrip(t *testing.T) {
	c := startTestCluster(t, 9)
	cl, err := c.NewClient("client")
	if err != nil {
		t.Fatal(err)
	}
	data := randomData(2, 2<<20+777)
	writeFile(t, cl, "/smarth-file", data, proto.ModeSmarth)
	verifyFile(t, cl, "/smarth-file", data)
	roundTripSmallPackets(t, cl, proto.ModeSmarth)
}

// roundTripSmallPackets writes a file at R3 in 1 KiB packets — payloads
// under proto's borrowMin, so each frame carries its payload copied in
// behind its checksums rather than as a second write vector — ending in
// a partial chunk, and reads it back byte-exact.
func roundTripSmallPackets(t *testing.T, cl *client.Client, mode proto.WriteMode) {
	t.Run("1KiB-packets", func(t *testing.T) {
		opts := client.WriteOptions{Replication: 3, BlockSize: 64 << 10, PacketSize: 1 << 10}
		data := randomData(20, 3*64<<10+5300) // 4 blocks, the last ending 180 B into a chunk
		path := fmt.Sprintf("/small-packets-%v", mode)
		writeFileWith(t, cl, path, data, opts, mode)
		verifyFile(t, cl, path, data)
	})
}

func TestSmarthRecordsSpeeds(t *testing.T) {
	c := startTestCluster(t, 9)
	cl, _ := c.NewClient("client")
	data := randomData(3, 1<<20)
	writeFile(t, cl, "/speeds", data, proto.ModeSmarth)
	if cl.Recorder().Len() == 0 {
		t.Fatal("no transfer speeds recorded after a SMARTH write")
	}
	if !c.NN.Registry().HasRecords("client") {
		t.Fatal("namenode has no speed records after SMARTH write + heartbeat")
	}
}

func TestEmptyFile(t *testing.T) {
	c := startTestCluster(t, 3)
	cl, _ := c.NewClient("client")
	for _, mode := range []proto.WriteMode{proto.ModeHDFS, proto.ModeSmarth} {
		path := fmt.Sprintf("/empty-%v", mode)
		writeFile(t, cl, path, nil, mode)
		verifyFile(t, cl, path, nil)
	}
}

func TestExactBlockMultiple(t *testing.T) {
	c := startTestCluster(t, 9)
	cl, _ := c.NewClient("client")
	opts := testWriteOptions()
	data := randomData(4, int(3*opts.BlockSize)) // exactly 3 blocks
	writeFile(t, cl, "/exact", data, proto.ModeSmarth)
	verifyFile(t, cl, "/exact", data)
	info, _ := cl.GetFileInfo("/exact")
	if info.NumBlocks != 3 {
		t.Fatalf("blocks = %d, want 3", info.NumBlocks)
	}
}

func TestReplication(t *testing.T) {
	c := startTestCluster(t, 9)
	cl, _ := c.NewClient("client")
	data := randomData(5, 600<<10)
	writeFile(t, cl, "/replicated", data, proto.ModeHDFS)

	// Every block must end up finalized on 3 datanodes, eventually (the
	// last mirror finishes after the client's acks in SMARTH; in HDFS
	// mode it is immediate but don't rely on timing).
	deadline := time.Now().Add(5 * time.Second)
	for {
		total, want := 0, 0
		for _, dn := range c.DNs {
			total += len(dn.Store().Blocks())
		}
		info, _ := cl.GetFileInfo("/replicated")
		want = info.NumBlocks * 3
		if total == want {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("replicas = %d, want %d", total, want)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestSmarthManyBlocksUseMultiplePipelines(t *testing.T) {
	c := startTestCluster(t, 9)
	cl, _ := c.NewClient("client")
	data := randomData(6, 3<<20) // 12 blocks of 256 KiB
	writeFile(t, cl, "/many", data, proto.ModeSmarth)
	verifyFile(t, cl, "/many", data)
}

func TestTwoClientsConcurrent(t *testing.T) {
	c := startTestCluster(t, 9)
	cl1, _ := c.NewClient("client-1")
	cl2, _ := c.NewClient("client-2")
	data1 := randomData(7, 1<<20)
	data2 := randomData(8, 1<<20)
	done := make(chan error, 2)
	go func() {
		done <- func() error {
			w, err := cl1.CreateSmarth("/c1", testWriteOptions())
			if err != nil {
				return err
			}
			if _, err := w.Write(data1); err != nil {
				return err
			}
			return w.Close()
		}()
	}()
	go func() {
		done <- func() error {
			w, err := cl2.CreateHDFS("/c2", testWriteOptions())
			if err != nil {
				return err
			}
			if _, err := w.Write(data2); err != nil {
				return err
			}
			return w.Close()
		}()
	}()
	for i := 0; i < 2; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	verifyFile(t, cl1, "/c1", data1)
	verifyFile(t, cl2, "/c2", data2)
}

func TestDiskBackedDatanodes(t *testing.T) {
	base := t.TempDir()
	c, err := Start(Config{
		NumDatanodes: 3,
		Seed:         11,
		NewStore: func(name string) (storage.Store, error) {
			return storage.NewDiskStore(base + "/" + name)
		},
		Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Stop)
	cl, _ := c.NewClient("client")
	data := randomData(9, 700<<10)
	writeFile(t, cl, "/on-disk", data, proto.ModeSmarth)
	verifyFile(t, cl, "/on-disk", data)
}

func TestWriteAfterClose(t *testing.T) {
	c := startTestCluster(t, 3)
	cl, _ := c.NewClient("client")
	w, err := cl.CreateHDFS("/wac", testWriteOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write([]byte("nope")); err == nil {
		t.Fatal("write after close succeeded")
	}
	if err := w.Close(); err != nil {
		t.Fatal("double close errored:", err)
	}
}

func TestWriteStats(t *testing.T) {
	c := startTestCluster(t, 9)
	cl, _ := c.NewClient("client")
	data := randomData(71, 1<<20) // 4 blocks
	w, err := cl.CreateSmarth("/stats", testWriteOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(data); err != nil {
		t.Fatal(err)
	}
	mid := w.Stats()
	if mid.BytesWritten != int64(len(data)) {
		t.Fatalf("mid-write bytes = %d, want %d", mid.BytesWritten, len(data))
	}
	if mid.Duration != 0 {
		t.Fatal("duration set before Close")
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	st := w.Stats()
	if st.BlocksLaunched != 4 {
		t.Fatalf("blocks = %d, want 4", st.BlocksLaunched)
	}
	if st.Recoveries != 0 {
		t.Fatalf("recoveries = %d on a healthy run", st.Recoveries)
	}
	if st.PeakPipelines < 1 || st.PeakPipelines > 3 {
		t.Fatalf("peak pipelines = %d", st.PeakPipelines)
	}
	if st.Duration <= 0 {
		t.Fatal("duration not set after Close")
	}
}

func TestWriteStatsCountRecoveries(t *testing.T) {
	c := startTestCluster(t, 9)
	cl, _ := c.NewClient("client")
	data := randomData(72, 2<<20)
	opts := testWriteOptions()
	w, err := cl.CreateHDFS("/stats-rec", opts)
	if err != nil {
		t.Fatal(err)
	}
	half := len(data) / 2
	killed := false
	for off := 0; off < len(data); off += 64 << 10 {
		end := off + 64<<10
		if end > len(data) {
			end = len(data)
		}
		if off >= half && !killed {
			c.KillDatanode("dn6")
			killed = true
		}
		if _, err := w.Write(data[off:end]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if st := w.Stats(); st.Recoveries == 0 {
		t.Log("note: the killed datanode happened to be outside every pipeline; stats still valid")
	}
	verifyFile(t, cl, "/stats-rec", data)
}
