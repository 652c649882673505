package datanode

import (
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/block"
	"repro/internal/checksum"
	"repro/internal/clock"
	"repro/internal/nnapi"
	"repro/internal/proto"
	"repro/internal/rpc"
	"repro/internal/storage"
	"repro/internal/transport"
)

// startFakeNN runs a namenode stub that accepts registrations,
// heartbeats and blockReceived reports without acting on them.
func startFakeNN(t testing.TB, n *transport.MemNetwork) {
	t.Helper()
	s := rpc.NewServer()
	rpc.Handle(s, nnapi.MethodRegister, func(nnapi.RegisterReq) (nnapi.RegisterResp, error) {
		return nnapi.RegisterResp{}, nil
	})
	rpc.Handle(s, nnapi.MethodHeartbeat, func(nnapi.HeartbeatReq) (nnapi.HeartbeatResp, error) {
		return nnapi.HeartbeatResp{}, nil
	})
	rpc.Handle(s, nnapi.MethodBlockReceived, func(nnapi.BlockReceivedReq) (nnapi.BlockReceivedResp, error) {
		return nnapi.BlockReceivedResp{}, nil
	})
	rpc.Handle(s, nnapi.MethodBlockReceivedBatch, func(nnapi.BlockReceivedBatchReq) (nnapi.BlockReceivedBatchResp, error) {
		return nnapi.BlockReceivedBatchResp{}, nil
	})
	l, err := n.Listen("nn")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(l)
	t.Cleanup(s.Close)
}

// TestInteriorResponderSeqnoSkew drives a real interior datanode whose
// mirror is a stub that acks the WRONG seqno. The interior responder
// must not stamp the merged ack with the downstream seqno as if nothing
// happened: it must surface StatusError upstream and abort.
func TestInteriorResponderSeqnoSkew(t *testing.T) {
	n := transport.NewMemNetwork(nil)
	startFakeNN(t, n)

	dn, err := New(Options{
		Name: "dn1", Addr: "dn1", NamenodeAddr: "nn",
		Network: n, Store: storage.NewMemStore(),
		Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := dn.Start(); err != nil {
		t.Fatal(err)
	}
	defer dn.Stop()

	// Fake mirror: completes setup honestly, then acks seqno+1 for every
	// packet, simulating a peer that lost an ack.
	ml, err := n.Listen("dn2")
	if err != nil {
		t.Fatal(err)
	}
	defer ml.Close()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		conn, err := ml.Accept()
		if err != nil {
			return
		}
		mc := proto.NewConn(conn)
		defer mc.Close()
		if _, _, err := mc.ReadHeader(); err != nil {
			return
		}
		if err := mc.WriteAck(&proto.Ack{Kind: proto.AckHeader, Seqno: -1, Statuses: []proto.Status{proto.StatusSuccess}}); err != nil {
			return
		}
		for {
			pkt, err := mc.ReadPacket()
			if err != nil {
				return
			}
			skewed := &proto.Ack{Kind: proto.AckData, Seqno: pkt.Seqno + 1, Statuses: []proto.Status{proto.StatusSuccess}}
			pkt.Release()
			if err := mc.WriteAck(skewed); err != nil {
				return
			}
		}
	}()

	// Fake client: write a two-packet block through dn1 with dn2 as the
	// mirror.
	conn, err := n.Dial("client", "dn1")
	if err != nil {
		t.Fatal(err)
	}
	pc := proto.NewConn(conn)
	defer pc.Close()
	blk := block.Block{ID: 1, Gen: 1}
	hdr := &proto.WriteBlockHeader{
		Block:   blk,
		Targets: []block.DatanodeInfo{{Name: "dn2", Addr: "dn2"}},
		Client:  "client",
		Mode:    proto.ModeHDFS,
	}
	if err := pc.WriteHeader(proto.OpWriteBlock, hdr); err != nil {
		t.Fatal(err)
	}
	setup, err := pc.ReadAck()
	if err != nil {
		t.Fatal(err)
	}
	if setup.Kind != proto.AckHeader || !setup.OK() {
		t.Fatalf("setup ack = %+v", setup)
	}
	data := []byte(strings.Repeat("hello, pipeline!", 32)) // one whole chunk: interior packets carry nothing less
	for seq := int64(0); seq < 2; seq++ {
		pkt := &proto.Packet{
			Seqno:  seq,
			Offset: seq * int64(len(data)),
			Last:   seq == 1,
			Sums:   checksum.Sum(data, checksum.DefaultChunkSize),
			Data:   data,
		}
		if err := pc.WritePacket(pkt); err != nil {
			t.Fatalf("write packet %d: %v", seq, err)
		}
	}

	// The skew must surface as a StatusError ack (before the conn drops).
	deadline := time.Now().Add(5 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatal("no error ack before deadline")
		}
		ack, err := pc.ReadAck()
		if err != nil {
			t.Fatalf("conn dropped without an error ack: %v", err)
		}
		if ack.Kind != proto.AckData {
			continue
		}
		if ack.OK() {
			t.Fatalf("skewed ack relayed as success: %+v", ack)
		}
		found := false
		for _, s := range ack.Statuses {
			if s == proto.StatusError {
				found = true
			}
		}
		if !found {
			t.Fatalf("ack statuses = %v, want StatusError", ack.Statuses)
		}
		break
	}
	wg.Wait()
}

// TestInteriorResponderCleanRun is the control: an honest mirror yields
// merged success acks for every packet.
func TestInteriorResponderCleanRun(t *testing.T) {
	n := transport.NewMemNetwork(nil)
	startFakeNN(t, n)

	for _, name := range []string{"dn1", "dn2"} {
		dn, err := New(Options{
			Name: name, Addr: name, NamenodeAddr: "nn",
			Network: n, Store: storage.NewMemStore(),
			Logf: t.Logf,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := dn.Start(); err != nil {
			t.Fatal(err)
		}
		defer dn.Stop()
	}

	conn, err := n.Dial("client", "dn1")
	if err != nil {
		t.Fatal(err)
	}
	pc := proto.NewConn(conn)
	defer pc.Close()
	hdr := &proto.WriteBlockHeader{
		Block:   block.Block{ID: 2, Gen: 1},
		Targets: []block.DatanodeInfo{{Name: "dn2", Addr: "dn2"}},
		Client:  "client",
		Mode:    proto.ModeHDFS,
	}
	if err := pc.WriteHeader(proto.OpWriteBlock, hdr); err != nil {
		t.Fatal(err)
	}
	if setup, err := pc.ReadAck(); err != nil || !setup.OK() {
		t.Fatalf("setup: ack=%+v err=%v", setup, err)
	}
	data := []byte(strings.Repeat("x", 1024))
	for seq := int64(0); seq < 3; seq++ {
		pkt := &proto.Packet{
			Seqno:  seq,
			Offset: seq * 1024,
			Last:   seq == 2,
			Sums:   checksum.Sum(data, checksum.DefaultChunkSize),
			Data:   data,
		}
		if err := pc.WritePacket(pkt); err != nil {
			t.Fatal(err)
		}
	}
	for want := int64(0); want < 3; want++ {
		ack, err := pc.ReadAck()
		if err != nil {
			t.Fatal(err)
		}
		if ack.Kind != proto.AckData {
			continue
		}
		if ack.Seqno != want || !ack.OK() || len(ack.Statuses) != 2 {
			t.Fatalf("ack %d = %+v", want, ack)
		}
	}
}

// TestFNFANotDelayedByUnackedPackets is the §IV-C contract on a SMARTH
// first datanode: it stores the whole block at client speed and emits
// the FNFA at its own commit, however many packets the mirror has yet
// to acknowledge. The mirror here completes setup and then neither
// reads nor acks, and the block has more packets than the 4096-slot
// status channel the receiver used to block on.
func TestFNFANotDelayedByUnackedPackets(t *testing.T) {
	n := transport.NewMemNetwork(nil)
	startFakeNN(t, n)

	store := storage.NewMemStore()
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
	defer dn.Stop()

	ml, err := n.Listen("dn2")
	if err != nil {
		t.Fatal(err)
	}
	defer ml.Close()
	release := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		conn, err := ml.Accept()
		if err != nil {
			return
		}
		mc := proto.NewConn(conn)
		defer mc.Close()
		if _, _, err := mc.ReadHeader(); err != nil {
			return
		}
		if err := mc.WriteAck(&proto.Ack{Kind: proto.AckHeader, Seqno: -1, Statuses: []proto.Status{proto.StatusSuccess}}); err != nil {
			return
		}
		<-release // stalled: no packet read, no ack sent
	}()
	defer wg.Wait()
	defer close(release)

	conn, err := n.Dial("client", "dn1")
	if err != nil {
		t.Fatal(err)
	}
	pc := proto.NewConn(conn)
	defer pc.Close()
	// A receiver that stops reading must fail the test, not hang it.
	(&proto.Dialer{Clock: clock.System, Progress: 5 * time.Second}).Arm(pc)
	blk := block.Block{ID: 3, Gen: 1}
	hdr := &proto.WriteBlockHeader{
		Block:   blk,
		Targets: []block.DatanodeInfo{{Name: "dn2", Addr: "dn2"}},
		Client:  "client",
		Mode:    proto.ModeSmarth,
	}
	if err := pc.WriteHeader(proto.OpWriteBlock, hdr); err != nil {
		t.Fatal(err)
	}
	if setup, err := pc.ReadAck(); err != nil || !setup.OK() {
		t.Fatalf("setup: ack=%+v err=%v", setup, err)
	}
	const packets = 6000 // > 4096 even with a pipe ring's worth still in flight
	data := []byte(strings.Repeat("x", 1024))
	sums := checksum.Sum(data, checksum.DefaultChunkSize)
	for seq := int64(0); seq < packets; seq++ {
		pkt := &proto.Packet{Seqno: seq, Offset: seq * 1024, Last: seq == packets-1, Sums: sums, Data: data}
		if err := pc.WritePacket(pkt); err != nil {
			t.Fatalf("write packet %d: %v (receiver back-pressured by unacked packets)", seq, err)
		}
	}
	for {
		ack, err := pc.ReadAck()
		if err != nil {
			t.Fatalf("no FNFA: %v", err)
		}
		if ack.Kind == proto.AckFNFA {
			break
		}
	}
	info, err := store.Info(blk.ID)
	if err != nil || info.State != storage.Finalized || info.Len != packets*1024 {
		t.Fatalf("first datanode's replica = %+v, %v; want %d finalized bytes", info, err, packets*1024)
	}
}
