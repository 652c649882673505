package cluster

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/proto"
	"repro/internal/storage"
)

func TestClientDeleteRenameList(t *testing.T) {
	c := startTestCluster(t, 9)
	cl, _ := c.NewClient("client")
	data := randomData(41, 600<<10)
	writeFile(t, cl, "/ns/file-a", data, proto.ModeSmarth)
	writeFile(t, cl, "/ns/file-b", randomData(42, 100<<10), proto.ModeHDFS)

	// List sees both, healthy.
	files, err := cl.List("/ns/")
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 2 {
		t.Fatalf("list = %d files, want 2", len(files))
	}
	for _, f := range files {
		if !f.Complete {
			t.Fatalf("%s not complete", f.Path)
		}
	}

	// Rename keeps data readable.
	if err := cl.Rename("/ns/file-a", "/ns/renamed"); err != nil {
		t.Fatal(err)
	}
	verifyFile(t, cl, "/ns/renamed", data)
	if _, err := cl.ReadAll("/ns/file-a"); err == nil {
		t.Fatal("old path still readable after rename")
	}

	// Delete removes the namespace entry and, eventually, the replicas.
	existed, err := cl.Delete("/ns/renamed")
	if err != nil || !existed {
		t.Fatalf("delete = %v, %v", existed, err)
	}
	if _, err := cl.ReadAll("/ns/renamed"); err == nil {
		t.Fatal("deleted file still readable")
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		// Only /ns/file-b's replicas should remain.
		info, _ := cl.GetFileInfo("/ns/file-b")
		want := info.NumBlocks * 3
		total := 0
		for _, dn := range c.DNs {
			total += len(dn.Store().Blocks())
		}
		if total == want {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("replicas = %d after delete, want %d", total, want)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func TestReadPrefersClosestReplica(t *testing.T) {
	// A client named after a datanode reads node-local first: exercised
	// indirectly by asking the namenode for ordered locations through the
	// client path (the ordering logic itself is unit-tested in the
	// namenode package; here we just confirm reads work for such a
	// client).
	c := startTestCluster(t, 9)
	cl, _ := c.NewClient("dn1") // client shares a datanode's identity
	data := randomData(43, 300<<10)
	writeFile(t, cl, "/local-read", data, proto.ModeHDFS)
	verifyFile(t, cl, "/local-read", data)
}

// TestLeaseRecoveryEndToEnd checks only that an overwrite takes the
// lease path: a client starts a write and dies (Close never runs), its
// lease still blocks a plain create, and a second client's overwrite
// takes the path over at once. The lease expiring at its default
// timeout is ROADMAP item 18's test.
func TestLeaseRecoveryEndToEnd(t *testing.T) {
	c, err := Start(Config{
		NumDatanodes:      5,
		Seed:              9,
		HeartbeatInterval: 30 * time.Millisecond,
		Logf:              t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Stop)

	// The dying writer: bypass Cluster.NewClient so Stop doesn't try to
	// close it twice (we close it manually to simulate the crash).
	dying, err := c.NewClient("dying")
	if err != nil {
		t.Fatal(err)
	}
	w, err := dying.CreateHDFS("/contested", testWriteOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(randomData(44, 300<<10)); err != nil {
		t.Fatal(err)
	}
	// Crash: stop heartbeating without completing the file.
	dying.Close()

	// Namenode lease timeout is DefaultLeaseTimeout (60s) — too long for
	// a test, so instead verify the lease blocks a second writer now...
	second, _ := c.NewClient("second")
	_, err = second.CreateHDFS("/contested", testWriteOptions())
	if err == nil {
		t.Fatal("second writer created over a held lease without overwrite")
	}
	// ...and that overwrite=true takes the path over immediately.
	opts := testWriteOptions()
	opts.Overwrite = true
	w2, err := second.CreateHDFS("/contested", opts)
	if err != nil {
		t.Fatal(err)
	}
	data := randomData(45, 200<<10)
	if _, err := w2.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}
	verifyFile(t, second, "/contested", data)
}

func TestReadRange(t *testing.T) {
	c := startTestCluster(t, 9)
	cl, _ := c.NewClient("client")
	data := randomData(51, 900<<10) // ~3.5 blocks of 256 KiB
	writeFile(t, cl, "/ranged", data, proto.ModeSmarth)

	cases := []struct{ off, n int64 }{
		{0, 10},                // head
		{100, 1000},            // inside first block
		{256<<10 - 5, 10},      // straddles a block boundary
		{256 << 10, 256 << 10}, // exactly the second block
		{700 << 10, 300 << 10}, // runs past EOF: truncated
		{0, -1},                // whole file
		{int64(len(data)), 10}, // at EOF: empty
		{1 << 30, 5},           // far past EOF: empty
		{500, 0},               // zero length
	}
	for _, tc := range cases {
		got, err := cl.ReadRange("/ranged", tc.off, tc.n)
		if err != nil {
			t.Fatalf("ReadRange(%d,%d): %v", tc.off, tc.n, err)
		}
		from := tc.off
		if from > int64(len(data)) {
			from = int64(len(data))
		}
		to := int64(len(data))
		if tc.n >= 0 && from+tc.n < to {
			to = from + tc.n
		}
		want := data[from:to]
		if string(got) != string(want) {
			t.Fatalf("ReadRange(%d,%d): got %d bytes, want %d (mismatch at %d)",
				tc.off, tc.n, len(got), len(want), firstDiff(got, want))
		}
	}
	if _, err := cl.ReadRange("/ranged", -1, 10); err == nil {
		t.Fatal("negative offset accepted")
	}
}

func TestClusterRestartWithImage(t *testing.T) {
	// Full restart: write a file onto disk-backed datanodes, checkpoint
	// the namespace, tear everything down, boot a new cluster over the
	// same stores with the image — the file must read back bit-exact.
	base := t.TempDir()
	newStore := func(name string) (storage.Store, error) {
		return storage.NewDiskStore(base + "/" + name)
	}

	c1, err := Start(Config{NumDatanodes: 5, Seed: 21, NewStore: newStore, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	cl1, _ := c1.NewClient("writer")
	data := randomData(81, 800<<10)
	writeFile(t, cl1, "/persistent", data, proto.ModeSmarth)

	var image bytes.Buffer
	if err := c1.NN.SaveImage(&image); err != nil {
		t.Fatal(err)
	}
	c1.Stop()

	c2, err := Start(Config{
		NumDatanodes: 5, Seed: 22,
		NewStore: newStore,
		Image:    bytes.NewReader(image.Bytes()),
		Logf:     t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c2.Stop)
	cl2, _ := c2.NewClient("reader")
	verifyFile(t, cl2, "/persistent", data)

	// And the restored namespace accepts new writes without colliding.
	more := randomData(82, 300<<10)
	writeFile(t, cl2, "/after-restart", more, proto.ModeHDFS)
	verifyFile(t, cl2, "/after-restart", more)
	verifyFile(t, cl2, "/persistent", data)
}
