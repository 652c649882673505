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
	defer nn.Close()

	stores := map[string]*storage.MemStore{"dn1": storage.NewMemStore(), "dn2": storage.NewMemStore()}
	for name, st := range stores {
		dn, err := datanode.New(datanode.Options{Name: name, Addr: name, NamenodeAddr: "nn", Network: nw, Store: st, Logf: t.Logf})
		if err != nil {
			t.Fatal(err)
		}
		if err := dn.Start(); err != nil {
			t.Fatal(err)
		}
		defer dn.Stop()
	}
	first, mirror := stores["dn1"], stores["dn2"]

	// churn fills and frees poison replicas on the first hop: each takes
	// whatever buffer the pool has for a block this size.
	poison := bytes.Repeat([]byte{0xDB}, blockBytes)
	churn := func(id block.ID) {
		for i := block.ID(0); i < 3; i++ {
			w, err := first.Create(block.Block{ID: id + i, Gen: 1}, false)
			if err != nil {
				t.Fatal(err)
			}
			w.(storage.SizeHinter).SizeHint(blockBytes)
			if _, err := w.Write(poison); err != nil {
				t.Fatal(err)
			}
			if err := w.Commit(); err != nil {
				t.Fatal(err)
			}
			w.Close()
		}
		for i := block.ID(0); i < 3; i++ {
			if err := first.Delete(id + i); err != nil {
				t.Fatal(err)
			}
		}
	}

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
		churn(1000 + 10*id)
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
