package cluster

import (
	"bytes"
	"io"
	"sort"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/obs"
	"repro/internal/proto"
	"repro/internal/storage"
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

// TestReadRangePrefetches: a ReadRange across three blocks goes through
// the same reader as Open, so the next block's stream is dialed while the
// current one drains — some block_read span starts before its
// predecessor ends — and the window's bytes come back exactly.
func TestReadRangePrefetches(t *testing.T) {
	o := obs.New(nil)
	c, err := Start(Config{NumDatanodes: 3, Seed: 7, Obs: o, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Stop)
	cl, _ := c.NewClient("client")
	data := randomData(405, 768<<10) // 3 × 256 KiB blocks
	writeFile(t, cl, "/prefetch-range", data, proto.ModeSmarth)
	got, err := cl.ReadRange("/prefetch-range", 100, int64(len(data))-200)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data[100:len(data)-100]) {
		t.Fatalf("content mismatch (%d bytes, want %d)", len(got), len(data)-200)
	}
	var reads []obs.SpanRecord
	for _, s := range o.Tracer.Snapshot() {
		if s.Name == "block_read" {
			reads = append(reads, s)
		}
	}
	if len(reads) != 3 {
		t.Fatalf("%d block_read spans, want 3", len(reads))
	}
	sort.Slice(reads, func(i, j int) bool { return reads[i].StartUS < reads[j].StartUS })
	for i := 1; i < len(reads); i++ {
		if reads[i].StartUS < reads[i-1].EndUS {
			return
		}
	}
	t.Fatalf("no block stream opened before its predecessor closed: %+v", reads)
}

// TestReadLandsInTheCallersBufferExactly: a packet that starts where the
// stream stands and fits is read straight into the caller's buffer and
// verified there; anything else goes through the stream's scratch. Either
// way what Read returns is the file, for destinations from one byte to
// more than a block, for ranges that start mid-chunk, and when the first
// replica has rotted mid-block — each Read's n bytes are checked as they
// come back, so a packet counted in n before it failed verification in
// the caller's buffer would show at that Read.
func TestReadLandsInTheCallersBufferExactly(t *testing.T) {
	c, _, cl, o := startReadFaultCluster(t, Config{})
	data := randomData(419, 600<<10+123) // 256 KB blocks: two whole, one that ends mid-chunk
	w, err := cl.CreateSmarth("/dst-sizes", client.WriteOptions{Replication: 3, BlockSize: 256 << 10, PacketSize: 16 << 10})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	lb, first := firstReadTarget(t, c, "/dst-sizes")

	readWith := func(size int) {
		t.Helper()
		r, err := cl.Open("/dst-sizes")
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		buf := make([]byte, size)
		pos := 0
		for {
			n, err := r.Read(buf)
			if pos+n > len(data) || !bytes.Equal(buf[:n], data[pos:pos+n]) {
				t.Fatalf("dst %d B: Read returned %d bytes at offset %d that are not the file's", size, n, pos)
			}
			pos += n
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatalf("dst %d B: read at %d: %v", size, pos, err)
			}
		}
		if pos != len(data) {
			t.Fatalf("dst %d B: read %d of %d bytes", size, pos, len(data))
		}
	}
	ranges := func() {
		t.Helper()
		for _, off := range []int64{1, 700, 16<<10 + 5, 90<<10 + 1, 256<<10 - 3} {
			for _, n := range []int64{1, 600, 40_000} {
				got, err := cl.ReadRange("/dst-sizes", off, n)
				if err != nil || !bytes.Equal(got, data[off:off+n]) {
					t.Fatalf("ReadRange(%d, %d): %d bytes, err %v; want data[%d:%d]", off, n, len(got), err, off, off+n)
				}
			}
		}
	}
	sizes := []int{1, 511, 512, 513, 16<<10 - 1, 16 << 10, 16<<10 + 1, 64 << 10, 100_000, 1 << 20}
	for _, size := range sizes {
		readWith(size)
	}
	ranges()

	// Rot one byte of the first replica, 100 KB into the first block: the
	// packet that carries it now fails verification wherever it landed.
	if err := c.Datanode(first).Store().(*storage.MemStore).Corrupt(lb.Block.ID, 100<<10); err != nil {
		t.Fatal(err)
	}
	for _, size := range sizes {
		before := readCounter(o, "read_failovers")
		readWith(size)
		if readCounter(o, "read_failovers") == before {
			t.Fatalf("dst %d B: read completed without failing over the rotted replica", size)
		}
	}
	ranges()
}
