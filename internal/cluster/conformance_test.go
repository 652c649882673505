package cluster

import (
	"testing"
	"time"

	"repro/internal/block"
	"repro/internal/checksum"
	"repro/internal/proto"
)

// dialDN opens a raw protocol connection to a datanode, bypassing the
// client library, to probe wire-level behaviour.
func dialDN(t *testing.T, c *Cluster, dn string) *proto.Conn {
	t.Helper()
	conn, err := c.EffNet.Dial("prober", dn)
	if err != nil {
		t.Fatal(err)
	}
	pc := proto.NewConn(conn)
	t.Cleanup(func() { pc.Close() })
	return pc
}

func TestDatanodeRejectsCorruptPacket(t *testing.T) {
	c := startTestCluster(t, 3)
	pc := dialDN(t, c, "dn1")

	b := block.Block{ID: 424242, Gen: 1}
	hdr := &proto.WriteBlockHeader{Block: b, Client: "prober", Mode: proto.ModeHDFS}
	if err := pc.WriteHeader(proto.OpWriteBlock, hdr); err != nil {
		t.Fatal(err)
	}
	setup, err := pc.ReadAck()
	if err != nil || setup.Kind != proto.AckHeader || !setup.OK() {
		t.Fatalf("setup ack = %+v, %v", setup, err)
	}

	// Send a packet whose checksums do not match the payload.
	data := make([]byte, 1024)
	sums := checksum.Sum(data, checksum.DefaultChunkSize)
	data[10] ^= 0xff // corrupt after checksumming
	if err := pc.WritePacket(&proto.Packet{Seqno: 0, Sums: sums, Data: data}); err != nil {
		t.Fatal(err)
	}
	ack, err := pc.ReadAck()
	if err != nil {
		t.Fatalf("no error ack for corrupt packet: %v", err)
	}
	if ack.Kind != proto.AckData || ack.OK() {
		t.Fatalf("corrupt packet ack = %+v, want checksum error", ack)
	}
	if ack.Statuses[0] != proto.StatusErrorChecksum {
		t.Fatalf("status = %v, want ERROR_CHECKSUM", ack.Statuses[0])
	}
	// The pipeline is torn down afterwards: further reads fail.
	if _, err := pc.ReadAck(); err == nil {
		t.Fatal("connection survived a checksum failure")
	}
	// And no replica survives — the temp replica is discarded when the
	// datanode's pipeline goroutine unwinds (poll: the teardown is
	// asynchronous with respect to the client-side connection error).
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := c.Datanode("dn1").Store().Info(b.ID); err != nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("corrupt block left a replica behind")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestDatanodeCleanSingleReplicaWrite(t *testing.T) {
	c := startTestCluster(t, 3)
	pc := dialDN(t, c, "dn2")

	b := block.Block{ID: 515151, Gen: 1}
	hdr := &proto.WriteBlockHeader{Block: b, Client: "prober", Mode: proto.ModeSmarth, Depth: 0}
	if err := pc.WriteHeader(proto.OpWriteBlock, hdr); err != nil {
		t.Fatal(err)
	}
	if setup, err := pc.ReadAck(); err != nil || !setup.OK() {
		t.Fatalf("setup = %+v, %v", setup, err)
	}
	data := randomData(99, 3000)
	pkt := &proto.Packet{
		Seqno: 0, Last: true,
		Sums: checksum.Sum(data, checksum.DefaultChunkSize),
		Data: data,
	}
	if err := pc.WritePacket(pkt); err != nil {
		t.Fatal(err)
	}
	// Expect a data ack and (SMARTH, depth 0) an FNFA, in either order.
	gotData, gotFNFA := false, false
	for i := 0; i < 2; i++ {
		ack, err := pc.ReadAck()
		if err != nil {
			t.Fatalf("ack %d: %v", i, err)
		}
		switch ack.Kind {
		case proto.AckData:
			if !ack.OK() || ack.Seqno != 0 {
				t.Fatalf("bad data ack %+v", ack)
			}
			gotData = true
		case proto.AckFNFA:
			gotFNFA = true
		}
	}
	if !gotData || !gotFNFA {
		t.Fatalf("acks: data=%v fnfa=%v", gotData, gotFNFA)
	}
	// The replica finalized even though the namenode never knew the
	// block (it will be invalidated later via blockReceived rejection —
	// also check that path fired).
	info, err := c.Datanode("dn2").Store().Info(b.ID)
	if err != nil || info.Len != int64(len(data)) {
		t.Fatalf("replica info = %+v, %v", info, err)
	}
	// The datanode reported blockReceived for an unknown block; the
	// namenode schedules invalidation, and the replica disappears.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := c.Datanode("dn2").Store().Info(b.ID); err != nil {
			break // invalidated
		}
		if time.Now().After(deadline) {
			t.Fatal("unknown-block replica never invalidated")
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func TestDatanodeHDFSModeSendsNoFNFA(t *testing.T) {
	c := startTestCluster(t, 3)
	pc := dialDN(t, c, "dn3")
	b := block.Block{ID: 616161, Gen: 1}
	if err := pc.WriteHeader(proto.OpWriteBlock, &proto.WriteBlockHeader{Block: b, Client: "prober", Mode: proto.ModeHDFS}); err != nil {
		t.Fatal(err)
	}
	if setup, err := pc.ReadAck(); err != nil || !setup.OK() {
		t.Fatalf("setup = %+v, %v", setup, err)
	}
	data := randomData(98, 100)
	if err := pc.WritePacket(&proto.Packet{Seqno: 0, Last: true, Sums: checksum.Sum(data, checksum.DefaultChunkSize), Data: data}); err != nil {
		t.Fatal(err)
	}
	ack, err := pc.ReadAck()
	if err != nil || ack.Kind != proto.AckData || !ack.OK() {
		t.Fatalf("data ack = %+v, %v", ack, err)
	}
	// No FNFA must follow in HDFS mode; the connection should go idle
	// and then EOF when we close our side.
	pc.Close()
}

func TestDatanodeReadMissingBlock(t *testing.T) {
	c := startTestCluster(t, 3)
	pc := dialDN(t, c, "dn1")
	if err := pc.WriteHeader(proto.OpReadBlock, &proto.ReadBlockHeader{Block: block.Block{ID: 999999}, Length: -1}); err != nil {
		t.Fatal(err)
	}
	ack, err := pc.ReadAck()
	if err != nil {
		t.Fatal(err)
	}
	if ack.Kind != proto.AckHeader || ack.OK() {
		t.Fatalf("missing-block read ack = %+v, want header error", ack)
	}
}
