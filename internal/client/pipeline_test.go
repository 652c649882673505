package client

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/block"
	"repro/internal/nnapi"
	"repro/internal/policy"
	"repro/internal/proto"
	"repro/internal/rpc"
	"repro/internal/transport"
	"repro/internal/writesched"
)

// The tests below run a real writer against a stub namenode and stub
// first datanodes on one MemNetwork: each stub datanode speaks proto
// directly, so a test decides packet by packet what the pipeline sees.

// pipelineTo is the pipeline first > dn1 > dn2 for block id.
func pipelineTo(first string, id block.ID) block.LocatedBlock {
	return block.LocatedBlock{
		Block: block.Block{ID: id, Gen: 1},
		Targets: []block.DatanodeInfo{
			{Name: first, Addr: first}, {Name: "dn1", Addr: "dn1"}, {Name: "dn2", Addr: "dn2"},
		},
	}
}

// startStubNamenode serves a write's namenode calls at "nn": addBlock and
// recoverBlock (nil: not served) answer as the test says, the others
// succeed.
func startStubNamenode(t *testing.T, n *transport.MemNetwork,
	addBlock func(nnapi.AddBlockReq) (nnapi.AddBlockResp, error),
	recoverBlock func(nnapi.RecoverBlockReq) (nnapi.RecoverBlockResp, error)) {
	t.Helper()
	s := rpc.NewServer()
	rpc.Handle(s, nnapi.MethodCreate, func(nnapi.CreateReq) (nnapi.CreateResp, error) {
		return nnapi.CreateResp{}, nil
	})
	rpc.Handle(s, nnapi.MethodClientHeartbeat, func(nnapi.ClientHeartbeatReq) (nnapi.ClientHeartbeatResp, error) {
		return nnapi.ClientHeartbeatResp{}, nil
	})
	rpc.Handle(s, nnapi.MethodComplete, func(nnapi.CompleteReq) (nnapi.CompleteResp, error) {
		return nnapi.CompleteResp{Done: true}, nil
	})
	rpc.Handle(s, nnapi.MethodAddBlock, addBlock)
	if recoverBlock != nil {
		rpc.Handle(s, nnapi.MethodRecoverBlock, recoverBlock)
	}
	l, err := n.Listen("nn")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(l)
	t.Cleanup(s.Close)
}

// serveStubDatanode accepts write pipelines at addr, answers each setup
// with an all-success header ack for the whole pipeline, and hands the
// conn to handle, closing it when handle returns.
func serveStubDatanode(t *testing.T, n *transport.MemNetwork, addr string, handle func(pc *proto.Conn, hdr *proto.WriteBlockHeader)) {
	t.Helper()
	l, err := n.Listen(addr)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	t.Cleanup(func() {
		l.Close()
		wg.Wait()
	})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				pc := proto.NewConn(conn)
				defer pc.Close()
				_, h, err := pc.ReadHeader()
				if err != nil {
					return
				}
				hdr := h.(*proto.WriteBlockHeader)
				ack := proto.Ack{Kind: proto.AckHeader, Seqno: -1, Statuses: make([]proto.Status, 1+len(hdr.Targets))}
				if pc.WriteAck(&ack) == nil {
					handle(pc, hdr)
				}
			}()
		}
	}()
}

// ackBlock reads packets up to the Last one, each payload byte checked
// against fill when fill is non-zero, calls beforeAcks (if set), and then
// sends the FNFA and an all-success ack for every packet.
func ackBlock(t *testing.T, pc *proto.Conn, hdr *proto.WriteBlockHeader, fill byte, beforeAcks func()) {
	var seqnos []int64
	for last := false; !last; {
		pkt, err := pc.ReadPacket()
		if err != nil {
			t.Errorf("%v: read packet: %v", hdr.Block, err)
			return
		}
		if fill != 0 && bytes.Count(pkt.Data, []byte{fill}) != len(pkt.Data) {
			t.Errorf("%v: packet %d carries bytes of another block", hdr.Block, pkt.Seqno)
		}
		seqnos = append(seqnos, pkt.Seqno)
		last = pkt.Last
		pkt.Release()
	}
	if beforeAcks != nil {
		beforeAcks()
	}
	ok := make([]proto.Status, 1+len(hdr.Targets))
	_ = pc.WriteAck(&proto.Ack{Kind: proto.AckFNFA, Seqno: seqnos[len(seqnos)-1], Statuses: ok[:1]})
	for _, s := range seqnos {
		if pc.WriteAck(&proto.Ack{Kind: proto.AckData, Seqno: s, Statuses: ok}) != nil {
			return
		}
	}
}

func newStubClient(t *testing.T, n *transport.MemNetwork, timeouts Timeouts) *Client {
	t.Helper()
	cl, err := New(Options{Name: "c", NamenodeAddr: "nn", Network: n, HeartbeatInterval: time.Hour, Timeouts: timeouts})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	return cl
}

// stubWrite is one SMARTH pipeline at a time in the order the namenode
// gives, so the stub at Targets[0] is the one dialed.
func stubWrite(blockSize int64) WriteOptions {
	return WriteOptions{BlockSize: blockSize, MaxPipelines: 1, DisableLocalOpt: true}
}

// clientGoroutines counts the live goroutines a client method started
// (the test's own are started by functions).
func clientGoroutines() int {
	buf := make([]byte, 1<<20)
	return strings.Count(string(buf[:runtime.Stack(buf, true)]), "created by repro/internal/client.(*")
}

// TestGoroutinesPerClientPipeline: a client pipeline is a sender that
// returns once the block is on the wire plus an ack reader, so while the
// first datanode holds back its acks the pipeline runs one goroutine.
func TestGoroutinesPerClientPipeline(t *testing.T) {
	const bs = 256 << 10
	n := transport.NewMemNetwork(nil)
	startStubNamenode(t, n, func(nnapi.AddBlockReq) (nnapi.AddBlockResp, error) {
		return nnapi.AddBlockResp{Located: pipelineTo("dn0", 1)}, nil
	}, nil)
	lastIn, release := make(chan struct{}), make(chan struct{})
	serveStubDatanode(t, n, "dn0", func(pc *proto.Conn, hdr *proto.WriteBlockHeader) {
		ackBlock(t, pc, hdr, 0, func() {
			close(lastIn)
			<-release
		})
	})
	cl := newStubClient(t, n, Timeouts{})
	w, err := cl.CreateSmarth("/one", stubWrite(bs))
	if err != nil {
		t.Fatal(err)
	}
	base := clientGoroutines()
	done := make(chan error, 1)
	go func() {
		_, err := w.Write(make([]byte, bs))
		if err == nil {
			err = w.Close()
		}
		done <- err
	}()
	<-lastIn
	got := 0
	for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(time.Millisecond) {
		if got = clientGoroutines() - base; got == 1 || time.Now().After(deadline) {
			break
		}
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if got != 1 {
		t.Fatalf("with every packet sent and no ack back, the pipeline runs %d goroutines, want 1 (its ack reader)", got)
	}
}

// TestErrorAckBlamesNamedHop: the first datanode answers packet 0 with an
// error ack naming pipeline position 2 and stops reading, so the sender
// is blocked mid-block when the ack reader fails the pipeline. The blame
// stays with dn2: recovery keeps dn0 and dn1.
func TestErrorAckBlamesNamedHop(t *testing.T) {
	n := transport.NewMemNetwork(nil)
	alive := make(chan []string, 1)
	startStubNamenode(t, n, func(nnapi.AddBlockReq) (nnapi.AddBlockResp, error) {
		return nnapi.AddBlockResp{Located: pipelineTo("dn0", 1)}, nil
	}, func(req nnapi.RecoverBlockReq) (nnapi.RecoverBlockResp, error) {
		alive <- req.Alive
		return nnapi.RecoverBlockResp{}, errors.New("stub: no replacement")
	})
	stop := make(chan struct{})
	serveStubDatanode(t, n, "dn0", func(pc *proto.Conn, hdr *proto.WriteBlockHeader) {
		pkt, err := pc.ReadPacket()
		if err != nil {
			return
		}
		st := make([]proto.Status, 1+len(hdr.Targets))
		st[2] = proto.StatusError
		_ = pc.WriteAck(&proto.Ack{Kind: proto.AckData, Seqno: pkt.Seqno, Statuses: st})
		pkt.Release()
		<-stop
	})
	t.Cleanup(func() { close(stop) }) // runs before the stub's own cleanup
	// The Progress bound only keeps a sender that never gives up from
	// hanging the test.
	cl := newStubClient(t, n, Timeouts{Progress: time.Second})
	w, err := cl.CreateSmarth("/blame", stubWrite(1<<20))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(make([]byte, 1<<20)); err == nil {
		t.Fatal("write succeeded with no replacement pipeline")
	}
	_ = w.Close()
	if got, want := <-alive, []string{"dn0", "dn1"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("recovery trusts %v, want %v: the error ack named dn2", got, want)
	}
}

// TestFailedSenderNeverReadsRecycledBlock: block 1's first datanode
// fails it at packet 0 and stops reading, leaving the sender blocked
// mid-block; recovery re-streams it to dnB, where it commits and its
// staging buffers go back to the pool while the producer stages block 2
// (every byte 2) into pooled buffers. Only then does dn0 read on. Every
// byte it gets must still be block 1's, and under -race no read of a
// recycled staging buffer may race the producer's writes.
func TestFailedSenderNeverReadsRecycledBlock(t *testing.T) {
	const bs = 1 << 20
	n := transport.NewMemNetwork(nil)
	resume := make(chan struct{})
	startStubNamenode(t, n, func(req nnapi.AddBlockReq) (nnapi.AddBlockResp, error) {
		if req.Previous.ID == 0 {
			return nnapi.AddBlockResp{Located: pipelineTo("dn0", 1)}, nil
		}
		close(resume) // block 2 is staged: block 1 committed long ago
		return nnapi.AddBlockResp{Located: pipelineTo("dnB", 2)}, nil
	}, func(req nnapi.RecoverBlockReq) (nnapi.RecoverBlockResp, error) {
		req.Block.Gen++
		return nnapi.RecoverBlockResp{Located: block.LocatedBlock{
			Block: req.Block, Targets: []block.DatanodeInfo{{Name: "dnB", Addr: "dnB"}},
		}}, nil
	})
	serveStubDatanode(t, n, "dn0", func(pc *proto.Conn, hdr *proto.WriteBlockHeader) {
		for failed := false; ; {
			pkt, err := pc.ReadPacket()
			if err != nil {
				return // the client closed the failed pipeline
			}
			if bytes.Count(pkt.Data, []byte{1}) != len(pkt.Data) {
				t.Errorf("dn0 got packet %d of block 1 from a recycled buffer", pkt.Seqno)
			}
			if !failed {
				failed = true
				st := make([]proto.Status, 1+len(hdr.Targets))
				st[1] = proto.StatusError
				_ = pc.WriteAck(&proto.Ack{Kind: proto.AckData, Seqno: pkt.Seqno, Statuses: st})
				<-resume
			}
			last := pkt.Last
			pkt.Release()
			if last {
				return
			}
		}
	})
	serveStubDatanode(t, n, "dnB", func(pc *proto.Conn, hdr *proto.WriteBlockHeader) {
		ackBlock(t, pc, hdr, byte(hdr.Block.ID), nil)
	})
	// The Progress bound only keeps a writer that waits for the blocked
	// sender without stopping it from deadlocking the test.
	cl := newStubClient(t, n, Timeouts{Progress: 5 * time.Second})
	w, err := cl.CreateSmarth("/recycled", stubWrite(bs))
	if err != nil {
		t.Fatal(err)
	}
	for id := byte(1); id <= 2; id++ {
		if _, err := w.Write(bytes.Repeat([]byte{id}, bs)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if st := w.Stats(); st.Recoveries != 1 || st.ActivePipelines != 0 {
		t.Fatalf("stats %+v, want one recovery and no live pipeline", st)
	}
}

// TestRefusedPlacementIsErrNoTargets: a namenode that cannot place a
// block answers with policy.ErrNoDatanodes' message; the writer hands
// the engine writesched.ErrNoTargets, and with no pipeline left to
// retire the file fails with it.
func TestRefusedPlacementIsErrNoTargets(t *testing.T) {
	n := transport.NewMemNetwork(nil)
	startStubNamenode(t, n, func(nnapi.AddBlockReq) (nnapi.AddBlockResp, error) {
		return nnapi.AddBlockResp{}, fmt.Errorf("namenode: addBlock: %w", policy.ErrNoDatanodes)
	}, nil)
	cl := newStubClient(t, n, Timeouts{})
	w, err := cl.CreateSmarth("/refused", stubWrite(64<<10))
	if err != nil {
		t.Fatal(err)
	}
	_, err = w.Write(make([]byte, 64<<10))
	if err == nil {
		err = w.Close()
	}
	if !errors.Is(err, writesched.ErrNoTargets) {
		t.Fatalf("write failed with %v, want a wrap of writesched.ErrNoTargets", err)
	}
}
