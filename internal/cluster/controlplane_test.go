package cluster

import (
	"bytes"
	"testing"

	"repro/internal/proto"
)

// TestReadSeesOtherClientsOverwrite: client A reads a file, client B
// overwrites it with different bytes, and A's very next read must return
// B's bytes. Every open asks the namenode, so there is no window in which
// A reads through remembered locations of the replaced blocks.
func TestReadSeesOtherClientsOverwrite(t *testing.T) {
	c := startTestCluster(t, 9)
	a, err := c.NewClient("reader")
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.NewClient("writer")
	if err != nil {
		t.Fatal(err)
	}
	v1 := randomData(5, 600<<10)
	writeFile(t, a, "/f", v1, proto.ModeSmarth)
	verifyFile(t, a, "/f", v1)

	v2 := randomData(6, 300<<10)
	opts := testWriteOptions()
	opts.Overwrite = true
	w, err := b.CreateSmarth("/f", opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(v2); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := a.ReadAll("/f")
	if err != nil {
		t.Fatalf("read after another client's overwrite: %v", err)
	}
	if !bytes.Equal(got, v2) {
		t.Fatalf("read after another client's overwrite returned %d bytes (v1=%v), want the %d new bytes",
			len(got), bytes.Equal(got, v1), len(v2))
	}
}
