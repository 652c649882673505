package datanode

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"testing"

	"repro/internal/block"
	"repro/internal/checksum"
	"repro/internal/proto"
	"repro/internal/storage"
	"repro/internal/transport"
)

// startReadDatanode boots a single datanode over a fresh MemNetwork with
// one finalized replica of data, and returns the network plus the store
// so tests can rig fault wrappers around it.
func startReadDatanode(t *testing.T, store storage.Store) *transport.MemNetwork {
	t.Helper()
	n := transport.NewMemNetwork(nil)
	startFakeNN(t, n)
	dn, err := New(Options{
		Name: "dn1", Addr: "dn1", NamenodeAddr: "nn",
		Network: n, Store: store,
		Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := dn.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(dn.Stop)
	return n
}

// storeBlock finalizes one replica of data under the given block.
func storeBlock(t *testing.T, store storage.Store, blk block.Block, data []byte) {
	t.Helper()
	w, err := store.Create(blk, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// readPackets issues OpReadBlock for [offset, offset+length) and drains
// the stream, verifying every packet's checksums and offsets along the
// way. It returns the concatenated payload and the packet count.
func readPackets(t *testing.T, n *transport.MemNetwork, blk block.Block, offset, length int64) ([]byte, int64, []proto.Packet) {
	t.Helper()
	conn, err := n.Dial("client", "dn1")
	if err != nil {
		t.Fatal(err)
	}
	pc := proto.NewConn(conn)
	defer pc.Close()
	hdr := &proto.ReadBlockHeader{Block: blk, Offset: offset, Length: length}
	if err := pc.WriteHeader(proto.OpReadBlock, hdr); err != nil {
		t.Fatal(err)
	}
	ack, err := pc.ReadAck()
	if err != nil {
		t.Fatal(err)
	}
	if ack.Kind != proto.AckHeader || !ack.OK() {
		t.Fatalf("setup ack = %+v", ack)
	}
	var out []byte
	var count int64
	var pkts []proto.Packet
	first := int64(-1)
	for {
		pkt, err := pc.ReadPacket()
		if err != nil {
			t.Fatalf("packet %d: %v", count, err)
		}
		if first < 0 {
			first = pkt.Offset
			if first%checksum.DefaultChunkSize != 0 {
				t.Fatalf("first packet offset %d not chunk-aligned", first)
			}
		}
		if pkt.Offset != first+int64(len(out)) {
			t.Fatalf("packet %d offset = %d, want %d", count, pkt.Offset, first+int64(len(out)))
		}
		if err := checksum.VerifyEncoded(pkt.Data, pkt.RawSums, checksum.DefaultChunkSize); err != nil {
			t.Fatalf("packet %d: %v", count, err)
		}
		out = append(out, pkt.Data...)
		last := pkt.Last
		cp := proto.Packet{Seqno: pkt.Seqno, Offset: pkt.Offset, Last: pkt.Last}
		pkt.Release()
		pkts = append(pkts, cp)
		count++
		if last {
			return out, first, pkts
		}
	}
}

// TestHandleReadZeroLengthAtChunkBoundaries: a zero-length window —
// anywhere, but chunk boundaries are where the widening arithmetic is
// most fragile — must yield exactly one empty Last packet, not a hang
// and not a dropped conn.
func TestHandleReadZeroLengthAtChunkBoundaries(t *testing.T) {
	const cs = checksum.DefaultChunkSize
	data := randomBytes(501, 4*cs+100)
	store := storage.NewMemStore()
	blk := block.Block{ID: 10, Gen: 1, NumBytes: int64(len(data))}
	storeBlock(t, store, blk, data)
	n := startReadDatanode(t, store)

	// Offsets on chunk boundaries: no widening applies, so the stream is
	// exactly one empty Last packet. (Unaligned offsets legitimately get
	// the widened chunk — covered by TestHandleReadZeroLengthMidChunk.)
	for _, off := range []int64{0, cs, 2 * cs, 4 * cs} {
		got, _, pkts := readPackets(t, n, blk, off, 0)
		if len(got) != 0 {
			t.Fatalf("offset %d: zero-length read returned %d bytes", off, len(got))
		}
		if len(pkts) != 1 || !pkts[0].Last {
			t.Fatalf("offset %d: got %d packets, want one empty Last packet", off, len(pkts))
		}
	}
}

// TestHandleReadZeroLengthMidChunk: a zero-length window inside a chunk
// still serves nothing — the widening must not balloon 0 requested bytes
// into a whole chunk of payload.
func TestHandleReadZeroLengthMidChunk(t *testing.T) {
	const cs = checksum.DefaultChunkSize
	data := randomBytes(503, 3*cs)
	store := storage.NewMemStore()
	blk := block.Block{ID: 11, Gen: 1, NumBytes: int64(len(data))}
	storeBlock(t, store, blk, data)
	n := startReadDatanode(t, store)

	got, first, _ := readPackets(t, n, blk, cs+100, 0)
	// The window is widened to chunk boundaries; the client trims. All
	// that matters is the served bytes match the store at their offsets
	// and cover the (empty) request.
	if !bytes.Equal(got, data[first:first+int64(len(got))]) {
		t.Fatalf("served bytes disagree with store at offset %d", first)
	}
	if int64(len(got)) > cs {
		t.Fatalf("zero-length mid-chunk read served %d bytes, want at most one chunk", len(got))
	}
}

// TestHandleReadOffsetPastEOF: an offset beyond the replica clamps to
// EOF and yields the widened tail (the last partial chunk) rather than
// an error or a hang — the client trims it to nothing.
func TestHandleReadOffsetPastEOF(t *testing.T) {
	const cs = checksum.DefaultChunkSize
	data := randomBytes(505, 2*cs+137) // unaligned tail
	store := storage.NewMemStore()
	blk := block.Block{ID: 12, Gen: 1, NumBytes: int64(len(data))}
	storeBlock(t, store, blk, data)
	n := startReadDatanode(t, store)

	got, first, pkts := readPackets(t, n, blk, int64(len(data))+10_000, -1)
	if !pkts[len(pkts)-1].Last {
		t.Fatal("stream did not end with a Last packet")
	}
	if first+int64(len(got)) != int64(len(data)) {
		t.Fatalf("stream ends at %d, want EOF %d", first+int64(len(got)), len(data))
	}
	if !bytes.Equal(got, data[first:]) {
		t.Fatal("widened tail disagrees with stored bytes")
	}
}

// TestHandleReadShortChecksumMetadata: when a replica's checksum
// metadata covers fewer chunks than its data — a .meta that lost its
// tail — the datanode refuses the read in the setup ack, so the reader
// fails over before a byte is streamed, instead of serving unverifiable
// bytes, panicking on the sums, or dying mid-stream.
func TestHandleReadShortChecksumMetadata(t *testing.T) {
	const cs = checksum.DefaultChunkSize
	data := randomBytes(507, 4*cs)
	dir := t.TempDir()
	store, err := storage.NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	blk := block.Block{ID: 13, Gen: 1, NumBytes: int64(len(data))}
	storeBlock(t, store, blk, data)
	if err := os.Truncate(filepath.Join(dir, "cur", "blk_13_1.meta"), 2*checksum.BytesPerChecksum); err != nil {
		t.Fatal(err)
	}
	n := startReadDatanode(t, store)

	conn, err := n.Dial("client", "dn1")
	if err != nil {
		t.Fatal(err)
	}
	pc := proto.NewConn(conn)
	defer pc.Close()
	if err := pc.WriteHeader(proto.OpReadBlock, &proto.ReadBlockHeader{Block: blk, Offset: 0, Length: -1}); err != nil {
		t.Fatal(err)
	}
	ack, err := pc.ReadAck()
	if err != nil {
		t.Fatal(err)
	}
	if ack.Kind != proto.AckHeader || len(ack.Statuses) != 1 || ack.Statuses[0] != proto.StatusError {
		t.Fatalf("setup ack = %+v, want a StatusError refusal", ack)
	}
	if pkt, err := pc.ReadPacket(); err == nil {
		pkt.Release()
		t.Fatal("the datanode streamed a packet after refusing the read")
	}
}

// TestHandleReadServesMidBlockRange: a range that starts mid-chunk,
// deep in the block, is served from the chunk boundary below it, with the
// stored bytes, through the requested end.
func TestHandleReadServesMidBlockRange(t *testing.T) {
	const cs = checksum.DefaultChunkSize
	data := randomBytes(509, 100*cs+250)
	blk := block.Block{ID: 14, Gen: 1, NumBytes: int64(len(data))}
	store := storage.NewMemStore()
	storeBlock(t, store, blk, data)
	n := startReadDatanode(t, store)
	// Deep enough in the block that the seek skips several packets.
	got, first, _ := readPackets(t, n, blk, 70*cs+13, 5*cs)
	if first != 70*cs {
		t.Fatalf("first served offset = %d, want chunk-aligned %d", first, 70*cs)
	}
	if !bytes.Equal(got, data[first:first+int64(len(got))]) {
		t.Fatal("served range disagrees with stored bytes")
	}
	if end := first + int64(len(got)); end < 70*cs+13+5*cs {
		t.Fatalf("served window ends at %d, short of the requested end %d", end, 70*cs+13+5*cs)
	}
}

// randomBytes is a deterministic payload generator local to this package.
func randomBytes(seed int64, n int) []byte {
	out := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(out)
	return out
}

// drainRead reads all of blk from dn1 and returns the payload bytes
// served, releasing every packet as it goes: the client side of a served
// block with nothing kept.
func drainRead(tb testing.TB, n *transport.MemNetwork, blk block.Block) int64 {
	conn, err := n.Dial("client", "dn1")
	if err != nil {
		tb.Fatal(err)
	}
	pc := proto.NewConn(conn)
	defer pc.Close()
	if err := pc.WriteHeader(proto.OpReadBlock, &proto.ReadBlockHeader{Block: blk, Length: -1}); err != nil {
		tb.Fatal(err)
	}
	if ack, err := pc.ReadAck(); err != nil || !ack.OK() {
		tb.Fatalf("setup ack = %+v, %v", ack, err)
	}
	var served int64
	for {
		pkt, err := pc.ReadPacket()
		if err != nil {
			tb.Fatal(err)
		}
		served += int64(len(pkt.Data))
		last := pkt.Last
		pkt.Release()
		if last {
			return served
		}
	}
}

// TestAllocServeRead budgets what serving one block costs a datanode and
// its reader: one 8 MB DiskStore block and one 1 MB MemStore block over
// the in-memory transport. The replica's checksums reach the wire as they
// were stored — a .meta read into a pooled buffer, sliced per packet — so
// what is left is the conn, the header and two file opens; a per-block
// .meta slice and a []uint32 (≈ 130 KB per disk block) would blow it.
func TestAllocServeRead(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops puts at random under -race")
	}
	disk, err := storage.NewDiskStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		kind   string
		store  storage.Store
		size   int
		budget uint64
	}{
		{"disk", disk, 8 << 20, allocBudgetServeDisk},
		{"mem", storage.NewMemStore(), 1 << 20, allocBudgetServeMem},
	} {
		t.Run(tc.kind, func(t *testing.T) {
			blk := block.Block{ID: 1, Gen: 1, NumBytes: int64(tc.size)}
			storeBlock(t, tc.store, blk, randomBytes(17, tc.size))
			n := startReadDatanode(t, tc.store)
			for i := 0; i < 4; i++ { // warm the pools
				drainRead(t, n, blk)
			}
			// The cheapest of three batches with the collector held off, as
			// in TestAllocReceiveBlock.
			defer debug.SetGCPercent(debug.SetGCPercent(-1))
			const blocks = 8
			best := ^uint64(0)
			for batch := 0; batch < 3; batch++ {
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				for i := 0; i < blocks; i++ {
					if got := drainRead(t, n, blk); got != int64(tc.size) {
						t.Fatalf("served %d of %d bytes", got, tc.size)
					}
				}
				runtime.ReadMemStats(&after)
				best = min(best, (after.TotalAlloc-before.TotalAlloc)/blocks)
			}
			t.Logf("serving one %d MB %s block allocates %d B", tc.size>>20, tc.kind, best)
			if best > tc.budget {
				t.Fatalf("serving one block allocates %d B, budget %d B", best, tc.budget)
			}
		})
	}
}

// The serve-read budgets: what TestAllocServeRead read when they were set
// (5.8–6.1 KB on disk, 5.5 KB in memory — conns, header, span attributes,
// two file opens) plus 10 %. A .meta slice and a []uint32 per block
// served would add ≈ 136 KB on disk and 8 KB in memory.
const (
	allocBudgetServeDisk = 6700
	allocBudgetServeMem  = 6100
)
