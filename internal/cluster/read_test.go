package cluster

import (
	"bytes"
	"io"
	"testing"
	"time"

	"repro/internal/proto"
)

// TestReadZeroLengthBuffer: a zero-length Read must return (0, nil) per
// the io.Reader contract. The old fileReader loop treated n==0 as "keep
// trying" and spun forever once the block stream had buffered data, so
// the whole test runs behind a watchdog.
func TestReadZeroLengthBuffer(t *testing.T) {
	c := startTestCluster(t, 3)
	cl, _ := c.NewClient("client")
	data := randomData(401, 64<<10)
	writeFile(t, cl, "/zero-len-read", data, proto.ModeSmarth)
	r, err := cl.Open("/zero-len-read")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	done := make(chan struct{})
	go func() {
		defer close(done)
		// Before any data is buffered.
		if n, err := r.Read(nil); n != 0 || err != nil {
			t.Errorf("Read(nil) = %d, %v; want 0, nil", n, err)
			return
		}
		// Force a packet into the stream buffer, then read zero again.
		one := make([]byte, 1)
		if _, err := io.ReadFull(r, one); err != nil {
			t.Error(err)
			return
		}
		if n, err := r.Read(make([]byte, 0)); n != 0 || err != nil {
			t.Errorf("Read(empty) = %d, %v; want 0, nil", n, err)
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("zero-length Read did not return (reader spinning)")
	}
}

// TestReadRangeStreamsExactWindows checks ReadRange against the source
// slice across aligned, chunk-unaligned, cross-block, tail, at-EOF,
// past-EOF and zero-length windows.
func TestReadRangeStreamsExactWindows(t *testing.T) {
	c := startTestCluster(t, 3)
	cl, _ := c.NewClient("client")
	data := randomData(403, 768<<10) // 3 × 256 KiB blocks
	writeFile(t, cl, "/range-read", data, proto.ModeSmarth)
	cases := []struct{ off, n int64 }{
		{0, -1},
		{0, 10},
		{1000, 513},          // straddles a checksum-chunk boundary
		{256<<10 - 100, 200}, // crosses a block boundary
		{256 << 10, 256 << 10},
		{700 << 10, -1},
		{768 << 10, 5},  // at EOF
		{800 << 10, 10}, // past EOF
		{5, 0},
	}
	for _, tc := range cases {
		got, err := cl.ReadRange("/range-read", tc.off, tc.n)
		if err != nil {
			t.Fatalf("ReadRange(%d,%d): %v", tc.off, tc.n, err)
		}
		off := tc.off
		if off > int64(len(data)) {
			off = int64(len(data))
		}
		end := int64(len(data))
		if tc.n >= 0 && off+tc.n < end {
			end = off + tc.n
		}
		if !bytes.Equal(got, data[off:end]) {
			t.Fatalf("ReadRange(%d,%d): got %d bytes, want data[%d:%d]", tc.off, tc.n, len(got), off, end)
		}
	}
}

// TestReadPrefetchParity: over a multi-block file the streaming reader,
// which dials each next block while the current one drains, and
// ReadRange, which dials every block cold, must both return the bytes
// written.
func TestReadPrefetchParity(t *testing.T) {
	c := startTestCluster(t, 3)
	cl, _ := c.NewClient("client")
	data := randomData(405, 768<<10)
	writeFile(t, cl, "/prefetch-read", data, proto.ModeSmarth)
	for _, tc := range []struct {
		name string
		read func() ([]byte, error)
	}{
		{"prefetch", func() ([]byte, error) { return cl.ReadAll("/prefetch-read") }},
		{"cold", func() ([]byte, error) { return cl.ReadRange("/prefetch-read", 0, -1) }},
	} {
		got, err := tc.read()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("%s: content mismatch (%d bytes, want %d)", tc.name, len(got), len(data))
		}
	}
}
