package cluster

import (
	"bytes"
	"io"
	"testing"
	"time"

	"repro/internal/block"
	"repro/internal/checksum"
	"repro/internal/datanode"
	"repro/internal/nnapi"
	"repro/internal/proto"
	"repro/internal/rpc"
	"repro/internal/storage"
	"repro/internal/transport"
)

// TestLentReplicaOutlivesDeleteAndOverwrite is the lifetime rule of the
// in-place receive path. A SMARTH first datanode reads each payload
// straight into its MemStore replica and its forwarder sends from those
// bytes, so the replica's buffer must stay out of the pool until the
// pipeline has unwound — even if, between the local commit (the FNFA)
// and the mirror catching up, the replica is deleted or overwritten.
//
// The mirror's NIC is shaped down so that window stays open for a few
// hundred milliseconds; in it the first hop's replica is deleted (or
// overwritten) and the store is churned with poison-filled replicas of
// the same size class, which would be built on the lent buffer had it
// been recycled. The mirror must still receive — and verify — the
// original bytes. Run under -race.
func TestLentReplicaOutlivesDeleteAndOverwrite(t *testing.T) {
	const blockBytes, packet = 2 << 20, proto.DefaultPacketSize
	shaper := NewShaper(nil)
	shaper.SetNode("dn2", "/rack-a", 8<<20) // 2 MB drain in ≈ 250 ms
	nw := transport.NewMemNetwork(shaper)
	stores := map[string]*storage.MemStore{"dn1": storage.NewMemStore(), "dn2": storage.NewMemStore()}
	startLoneDatanodes(t, nw, stores)
	first, mirror := stores["dn1"], stores["dn2"]
	poison := bytes.Repeat([]byte{0xDB}, blockBytes)

	for round, unmap := range []string{"delete", "overwrite", "delete", "overwrite", "delete", "overwrite"} {
		id := block.ID(round + 1)
		data := randomData(int64(round), blockBytes)
		rawSums := checksum.AppendEncoded(nil, data, checksum.DefaultChunkSize)
		conn, err := nw.Dial("client", "dn1")
		if err != nil {
			t.Fatal(err)
		}
		pc := proto.NewConn(conn)
		hdr := &proto.WriteBlockHeader{
			Block: block.Block{ID: id, Gen: 1}, Targets: []block.DatanodeInfo{{Name: "dn2", Addr: "dn2"}},
			Client: "client", Mode: proto.ModeSmarth, BlockBytes: blockBytes,
		}
		if err := pc.WriteHeader(proto.OpWriteBlock, hdr); err != nil {
			t.Fatal(err)
		}
		if setup, err := pc.ReadAck(); err != nil || !setup.OK() {
			t.Fatalf("setup: %+v, %v", setup, err)
		}
		const packets = blockBytes / packet
		const sumBytes = packet / checksum.DefaultChunkSize * checksum.BytesPerChecksum
		for seq := int64(0); seq < packets; seq++ {
			pkt := proto.Packet{Seqno: seq, Offset: seq * packet, Last: seq == packets-1,
				Data: data[seq*packet : (seq+1)*packet], RawSums: rawSums[seq*sumBytes : (seq+1)*sumBytes]}
			if err := pc.WritePacket(&pkt); err != nil {
				t.Fatal(err)
			}
		}
		// Acks up to the FNFA: the first hop has committed; its forwarder
		// is still sending from the replica.
		acked := int64(-1)
		for fnfa := false; !fnfa; {
			ack, err := pc.ReadAck()
			if err != nil || !ack.OK() {
				t.Fatalf("round %d: before the FNFA: %+v, %v", round, ack, err)
			}
			if ack.Kind == proto.AckFNFA {
				fnfa = true
			} else {
				acked = ack.Seqno
			}
		}
		if acked == packets-1 {
			t.Fatalf("round %d: the mirror had drained before the FNFA; the shaped link did not hold the window open", round)
		}
		switch unmap {
		case "delete":
			if err := first.Delete(id); err != nil {
				t.Fatal(err)
			}
		case "overwrite":
			w, err := first.Create(block.Block{ID: id, Gen: 2}, true)
			if err != nil {
				t.Fatal(err)
			}
			w.(storage.SizeHinter).SizeHint(blockBytes)
			if _, err := w.Write(poison); err != nil {
				t.Fatal(err)
			}
			w.Close() // aborted: its own buffer goes back to the pool
		}
		churn(t, first, 1000+10*id, poison)
		for acked < packets-1 {
			ack, err := pc.ReadAck()
			if err != nil || !ack.OK() {
				t.Fatalf("round %d (%s): the mirror refused what the first hop forwarded after its replica was unmapped: %+v, %v",
					round, unmap, ack, err)
			}
			if ack.Kind == proto.AckData {
				acked = ack.Seqno
			}
		}
		pc.Close()
		// The last hop acks its last packet a moment before it commits.
		for start := time.Now(); ; time.Sleep(time.Millisecond) {
			if info, err := mirror.Info(id); err == nil && info.State == storage.Finalized {
				break
			}
			if time.Since(start) > 5*time.Second {
				t.Fatalf("round %d: the mirror never finalized blk_%d", round, id)
			}
		}
		r, _, err := mirror.Open(id)
		if err != nil {
			t.Fatal(err)
		}
		got, err := io.ReadAll(r)
		r.Close()
		if err != nil || !bytes.Equal(got, data) {
			t.Fatalf("round %d (%s): the mirror's replica differs from the bytes sent", round, unmap)
		}
		if err := mirror.VerifyBlock(id); err != nil {
			t.Fatalf("round %d (%s): %v", round, unmap, err)
		}
	}
}

// TestReadOutlivesDeleteAndOverwrite is the same rule on the read path. A
// datanode serving a MemStore replica sends its bytes and its stored
// checksums (Replica.RawSums) from the replica's own buffers, read as
// each packet goes out, so both must stay out of the pool until the
// reader closes — even if the replica is deleted, or overwritten under
// the same ID, mid-stream.
//
// The reader's NIC is shaped down so the stream takes a few hundred
// milliseconds; after its first packet the replica is deleted (or
// replaced by a committed poison replica of the same ID) and the store is
// churned with poison replicas of the same size class, which would be
// built on the reader's buffers had they been recycled. Every packet must
// still carry the original bytes and the original checksums. Run under
// -race.
func TestReadOutlivesDeleteAndOverwrite(t *testing.T) {
	const blockBytes, packet = 2 << 20, proto.DefaultPacketSize
	const cs, packets = checksum.DefaultChunkSize, blockBytes / packet
	shaper := NewShaper(nil)
	shaper.SetNode("client", "/rack-a", 8<<20) // 2 MB drain in ≈ 250 ms
	nw := transport.NewMemNetwork(shaper)
	stores := map[string]*storage.MemStore{"dn1": storage.NewMemStore()}
	startLoneDatanodes(t, nw, stores)
	store := stores["dn1"]
	poison := bytes.Repeat([]byte{0xDB}, blockBytes)

	for round, unmap := range []string{"delete", "overwrite", "delete", "overwrite", "delete", "overwrite"} {
		id := block.ID(round + 1)
		data := randomData(int64(round), blockBytes)
		rawSums := checksum.AppendEncoded(nil, data, cs)
		putReplica(t, store, block.Block{ID: id, Gen: 1}, data, false)

		conn, err := nw.Dial("client", "dn1")
		if err != nil {
			t.Fatal(err)
		}
		pc := proto.NewConn(conn)
		defer pc.Close() // on failure too: the datanode is blocked sending
		if err := pc.WriteHeader(proto.OpReadBlock, &proto.ReadBlockHeader{Block: block.Block{ID: id, Gen: 1}, Length: -1}); err != nil {
			t.Fatal(err)
		}
		if setup, err := pc.ReadAck(); err != nil || !setup.OK() {
			t.Fatalf("setup: %+v, %v", setup, err)
		}
		received := 0
		next := func() (last bool) {
			pkt, err := pc.ReadPacket()
			if err != nil {
				t.Fatalf("round %d (%s): packet %d: %v", round, unmap, received, err)
			}
			defer pkt.Release()
			off := pkt.Offset
			if off != int64(received)*packet || len(pkt.Data) != packet {
				t.Fatalf("round %d (%s): packet %d at %d+%d", round, unmap, received, off, len(pkt.Data))
			}
			sums := rawSums[off/cs*checksum.BytesPerChecksum:][:len(pkt.RawSums)]
			if !bytes.Equal(pkt.Data, data[off:off+packet]) || !bytes.Equal(pkt.RawSums, sums) ||
				checksum.VerifyEncoded(pkt.Data, pkt.RawSums, cs) != nil {
				t.Fatalf("round %d (%s): packet %d carries other bytes or checksums than the replica opened", round, unmap, received)
			}
			received++
			return pkt.Last
		}
		next() // the datanode has opened the replica and is streaming it
		switch unmap {
		case "delete":
			if err := store.Delete(id); err != nil {
				t.Fatal(err)
			}
		case "overwrite":
			putReplica(t, store, block.Block{ID: id, Gen: 2}, poison, true)
		}
		churn(t, store, 1000+10*id, poison)
		before := received
		for !next() {
		}
		// The datanode reads a packet just before sending it, so it is at
		// most a transport buffer (four packets) and one packet ahead.
		if received != packets || received-before < 8 {
			t.Fatalf("round %d: %d packets, %d of them after the churn; the shaped link did not hold the stream open", round, received, received-before)
		}
	}
}

// startLoneDatanodes starts a datanode per store on nw, each named for
// its key, behind a namenode stub that accepts their registration,
// heartbeats and reports.
func startLoneDatanodes(t *testing.T, nw *transport.MemNetwork, stores map[string]*storage.MemStore) {
	nn := rpc.NewServer()
	rpc.Handle(nn, nnapi.MethodRegister, func(nnapi.RegisterReq) (nnapi.RegisterResp, error) { return nnapi.RegisterResp{}, nil })
	rpc.Handle(nn, nnapi.MethodHeartbeat, func(nnapi.HeartbeatReq) (nnapi.HeartbeatResp, error) { return nnapi.HeartbeatResp{}, nil })
	rpc.Handle(nn, nnapi.MethodBlockReceived, func(nnapi.BlockReceivedReq) (nnapi.BlockReceivedResp, error) {
		return nnapi.BlockReceivedResp{}, nil
	})
	ln, err := nw.Listen("nn")
	if err != nil {
		t.Fatal(err)
	}
	go nn.Serve(ln)
	t.Cleanup(func() { nn.Close() })
	for name, st := range stores {
		dn, err := datanode.New(datanode.Options{Name: name, Addr: name, NamenodeAddr: "nn", Network: nw, Store: st, Logf: t.Logf})
		if err != nil {
			t.Fatal(err)
		}
		if err := dn.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(dn.Stop)
	}
}

// putReplica commits data as replica b the way a datanode does: size
// hint, write, commit, close.
func putReplica(t *testing.T, st *storage.MemStore, b block.Block, data []byte, overwrite bool) {
	t.Helper()
	w, err := st.Create(b, overwrite)
	if err != nil {
		t.Fatal(err)
	}
	w.(storage.SizeHinter).SizeHint(int64(len(data)))
	if _, err := w.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	w.Close()
}

// churn fills and frees three poison replicas in st: each takes whatever
// buffers the pool has for a block this size.
func churn(t *testing.T, st *storage.MemStore, id block.ID, poison []byte) {
	t.Helper()
	for i := block.ID(0); i < 3; i++ {
		putReplica(t, st, block.Block{ID: id + i, Gen: 1}, poison, false)
	}
	for i := block.ID(0); i < 3; i++ {
		if err := st.Delete(id + i); err != nil {
			t.Fatal(err)
		}
	}
}
