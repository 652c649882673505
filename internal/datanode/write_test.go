package datanode

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
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
// heartbeats and block reports without acting on them.
func startFakeNN(t testing.TB, n *transport.MemNetwork) {
	t.Helper()
	s := rpc.NewServer()
	rpc.Handle(s, nnapi.MethodRegister, func(nnapi.RegisterReq) (nnapi.RegisterResp, error) {
		return nnapi.RegisterResp{}, nil
	})
	rpc.Handle(s, nnapi.MethodHeartbeat, func(nnapi.HeartbeatReq) (nnapi.HeartbeatResp, error) {
		return nnapi.HeartbeatResp{}, nil
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
// mirror is a stub that acks the WRONG seqno. The interior ack relay
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
	fakeMirror(t, n, "dn2", 1)

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
// reads nor acks: the receiver's only back-pressure is the one-block
// forward queue, which 6000 packets of 1 KB do not fill, so nothing
// that waits on acks may stand between it and the commit.
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

// fakeMirror stands in for the next hop at addr: it accepts one
// pipeline, completes its setup, and acks each packet with its seqno
// plus skew (0 for an honest hop) until the block's last packet or an
// error. Its one goroutine starts here, before the caller opens the
// pipeline, and ends when the hop in front of it hangs up.
func fakeMirror(t *testing.T, n *transport.MemNetwork, addr string, skew int64) {
	t.Helper()
	l, err := n.Listen(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go func() {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		mc := proto.NewConn(conn)
		defer mc.Close()
		ack := proto.Ack{Kind: proto.AckHeader, Seqno: -1, Statuses: []proto.Status{proto.StatusSuccess}}
		if _, _, err := mc.ReadHeader(); err != nil || mc.WriteAck(&ack) != nil {
			return
		}
		ack.Kind = proto.AckData
		for last := false; !last; {
			pkt, err := mc.ReadPacket()
			if err != nil {
				return
			}
			ack.Seqno, last = pkt.Seqno+skew, pkt.Last
			pkt.Release()
			if mc.WriteAck(&ack) != nil {
				return
			}
		}
	}()
}

// failCommit is a store whose writers fail Commit 20 ms after it is
// called: long enough for an ack sent without waiting for the commit to
// reach the client first.
type failCommit struct{ storage.Store }

type failCommitWriter struct{ storage.BlockWriter }

func (s failCommit) Create(b block.Block, overwrite bool) (storage.BlockWriter, error) {
	w, err := s.Store.Create(b, overwrite)
	if err != nil {
		return nil, err
	}
	return failCommitWriter{w}, nil
}

func (failCommitWriter) Commit() error {
	time.Sleep(20 * time.Millisecond)
	return errors.New("commit failed")
}

// TestLastAckFollowsCommit: the ack of a block's last packet follows the
// commit at every hop it speaks for, so a hop that fails to commit is
// never reported as holding the block. Whichever hop fails — the only
// one, an interior one, the tail behind one — the client reads its
// StatusError or loses the conn, and never a SUCCESS from it for the last
// seqno.
func TestLastAckFollowsCommit(t *testing.T) {
	const cs = checksum.DefaultChunkSize
	for _, tc := range []struct{ hops, bad int }{{1, 0}, {2, 0}, {2, 1}} {
		t.Run(fmt.Sprintf("%dhop/hop%d", tc.hops, tc.bad), func(t *testing.T) {
			stores := make([]storage.Store, tc.hops)
			for i := range stores {
				stores[i] = storage.NewMemStore()
			}
			stores[tc.bad] = failCommit{stores[tc.bad]}
			c := startChainOn(t, stores...)
			pc := c.open(t, block.Block{ID: 1, Gen: 1}, 0, nil)
			defer pc.Close()
			pkts := packetsOf(randomBytes(3, 3*cs+100), cs)
			for i := range pkts {
				if err := pc.WritePacket(&pkts[i]); err != nil {
					t.Fatal(err)
				}
			}
			last := pkts[len(pkts)-1].Seqno
			for {
				ack, err := pc.ReadAck()
				if err != nil {
					return // the conn dropped: nobody claimed the block
				}
				if ack.Kind != proto.AckData {
					continue
				}
				switch bad := proto.Blame(ack.Statuses); {
				case ack.OK():
					if ack.Seqno == last {
						t.Fatalf("hop %d acked the last packet, then failed to commit it: %+v", tc.bad, ack)
					}
				case bad == tc.bad && ack.Statuses[bad] == proto.StatusError:
					return
				default:
					t.Fatalf("refusal %+v does not name hop %d", ack, tc.bad)
				}
			}
		})
	}
}

// stallAppend is a store whose writers block in their second Append
// until release closes, closing stalled when they get there: a hop that
// has taken a packet it will not ack.
type stallAppend struct {
	storage.Store
	stalled, release chan struct{}
}

type stallAppendWriter struct {
	storage.BlockWriter
	s        stallAppend
	appended int
}

func (s stallAppend) Create(b block.Block, overwrite bool) (storage.BlockWriter, error) {
	w, err := s.Store.Create(b, overwrite)
	if err != nil {
		return nil, err
	}
	return &stallAppendWriter{BlockWriter: w, s: s}, nil
}

func (w *stallAppendWriter) Append(p, raw []byte) error {
	if w.appended++; w.appended == 2 {
		close(w.s.stalled)
		<-w.s.release
	}
	return w.BlockWriter.Append(p, raw)
}

// TestInteriorNamesFailedMirror: when hop 1 of a two-hop chain dies
// holding a packet it has not acked, hop 0 tells the client so with an
// error ack naming hop 1 ([SUCCESS, ERROR]) rather than dropping the
// conn, which would leave the client nothing to blame but hop 0.
func TestInteriorNamesFailedMirror(t *testing.T) {
	const cs = checksum.DefaultChunkSize
	hop1 := stallAppend{Store: storage.NewMemStore(), stalled: make(chan struct{}), release: make(chan struct{})}
	c := startChainOn(t, storage.NewMemStore(), hop1)
	defer close(hop1.release)
	pc := c.open(t, block.Block{ID: 1, Gen: 1}, 0, nil)
	defer pc.Close()
	pkts := packetsOf(randomBytes(4, 4*cs), cs)
	for i := range pkts {
		if err := pc.WritePacket(&pkts[i]); err != nil {
			t.Fatal(err)
		}
	}
	<-hop1.stalled
	// Hop 1 dies with packet 1 in hand. Its Stop closes its conns at once
	// but returns only when its receiver, parked in Append, is released.
	go c.dns[1].Stop()
	for {
		ack, err := pc.ReadAck()
		if err != nil {
			t.Fatalf("hop 0 dropped the conn (%v) instead of naming its mirror", err)
		}
		if ack.OK() {
			continue
		}
		if proto.Blame(ack.Statuses) != 1 || ack.Statuses[1] != proto.StatusError {
			t.Fatalf("ack %+v does not name hop 1", ack)
		}
		return
	}
}

// TestInteriorNamesSilentTail: when the tail of a three-hop chain takes
// a packet and goes silent, the client reads [SUCCESS, SUCCESS, ERROR]:
// hop 1's relay gives up on the tail and names it before hop 0's relay,
// whose mirror bound is a quarter DataTimeout longer, gives up on hop 1.
func TestInteriorNamesSilentTail(t *testing.T) {
	const cs = checksum.DefaultChunkSize
	tail := stallAppend{Store: storage.NewMemStore(), stalled: make(chan struct{}), release: make(chan struct{})}
	c := startChainTimed(t, 200*time.Millisecond, storage.NewMemStore(), storage.NewMemStore(), tail)
	defer close(tail.release)
	pc := c.open(t, block.Block{ID: 1, Gen: 1}, 0, nil)
	defer pc.Close()
	pkts := packetsOf(randomBytes(5, 4*cs), cs)
	for i := range pkts {
		if err := pc.WritePacket(&pkts[i]); err != nil {
			t.Fatal(err)
		}
	}
	for {
		ack, err := pc.ReadAck()
		if err != nil {
			t.Fatalf("the chain dropped the conn (%v) instead of naming its tail", err)
		}
		if ack.OK() {
			continue
		}
		if want := []proto.Status{proto.StatusSuccess, proto.StatusSuccess, proto.StatusError}; !slices.Equal(ack.Statuses, want) {
			t.Fatalf("ack %+v, want statuses %v naming hop 2", ack, want)
		}
		return
	}
}

// TestBrokenQueueStopsCommit: once the forwarder has broken the forward
// queue (its mirror failed), the receiver takes the block's last packet
// but neither commits nor acks it, so a datanode whose pipeline is known
// broken reports no replica and, leading a SMARTH pipeline, sends no
// FNFA.
func TestBrokenQueueStopsCommit(t *testing.T) {
	c := startChainOn(t, storage.NewMemStore())
	l, err := c.net.Listen("up")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	cconn, err := c.net.Dial("client", "up")
	if err != nil {
		t.Fatal(err)
	}
	client := proto.NewConn(cconn)
	defer client.Close()
	sconn, err := l.Accept()
	if err != nil {
		t.Fatal(err)
	}
	up := proto.NewConn(sconn)
	defer up.Close()

	b := block.Block{ID: 7, Gen: 1}
	w, err := c.stores[0].Create(b, true)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	queue := newPacketQueue(0)
	queue.breakNow()
	var lastSeqno atomic.Int64
	lastSeqno.Store(-1)
	pkt := packetsOf(randomBytes(6, 100), checksum.DefaultChunkSize)[0] // the whole block
	go client.WritePacket(&pkt)
	hdr := &proto.WriteBlockHeader{Block: b, Client: "client", Mode: proto.ModeSmarth}
	if c.dns[0].receiveLoop(up, hdr, w, &ackSender{pc: up}, queue, &lastSeqno) {
		t.Fatal("receiveLoop reports the pipeline up behind a broken queue")
	}
	if _, committed := c.stores[0].state(b.ID); committed {
		t.Fatal("the last packet was committed after the mirror failed")
	}
	up.Close()
	if ack, err := client.ReadAck(); err == nil {
		t.Fatalf("the receiver answered the last packet: %+v", ack)
	}
}

// TestStaleGenerationRefusedAtSetup: a tail datanode that holds a block
// finalized at generation 3 is sent a generation-2 write header — a
// superseded pipeline's forwarder, wedged and then resumed. It must
// refuse the setup, and its gen-3 replica must outlive the stale stream.
func TestStaleGenerationRefusedAtSetup(t *testing.T) {
	for _, kind := range []string{"mem", "disk"} {
		t.Run(kind, func(t *testing.T) {
			c := startChain(t, 1, kind)
			data := randomBytes(6, 3*checksum.DefaultChunkSize+100)
			pkts := packetsOf(data, checksum.DefaultChunkSize)
			pc := c.open(t, block.Block{ID: 1, Gen: 3}, 0, nil)
			for i := range pkts {
				if err := pc.WritePacket(&pkts[i]); err != nil {
					t.Fatal(err)
				}
			}
			for last := pkts[len(pkts)-1].Seqno; ; {
				ack, err := pc.ReadAck()
				if err != nil || !ack.OK() {
					t.Fatalf("gen 3: ack %+v, %v", ack, err)
				}
				if ack.Seqno == last {
					break
				}
			}
			pc.Close()

			conn, err := c.net.Dial("client", "dn1")
			if err != nil {
				t.Fatal(err)
			}
			stale := proto.NewConn(conn)
			hdr := &proto.WriteBlockHeader{Block: block.Block{ID: 1, Gen: 2}, Client: "client", Mode: proto.ModeHDFS}
			if err := stale.WriteHeader(proto.OpWriteBlock, hdr); err != nil {
				t.Fatal(err)
			}
			if setup, err := stale.ReadAck(); err == nil && setup.OK() {
				t.Errorf("a gen-2 setup over a finalized gen-3 replica was acked: %+v", setup)
			}
			stale.Close() // the stale stream ends
			c.stop()      // every handler has unwound

			r, n, err := c.stores[0].Open(1)
			if err != nil {
				t.Fatalf("the gen-3 replica is gone after the stale stream: %v", err)
			}
			got, err := io.ReadAll(r)
			r.Close()
			if err != nil || n != int64(len(data)) || !bytes.Equal(got, data) {
				t.Fatalf("the gen-3 replica reads back %d of %d bytes (%v), or other bytes", len(got), n, err)
			}
			if info, _ := c.stores[0].Info(1); info.Block.Gen != 3 {
				t.Fatalf("the store holds %+v, want generation 3", info)
			}
		})
	}
}

// TestGoroutinesPerPipeline pins what an open pipeline costs a datanode
// in goroutines: the tail runs on its connection's goroutine alone, and
// an interior hop adds a forwarder and an ack relay. When the block is
// done, all of them are gone.
func TestGoroutinesPerPipeline(t *testing.T) {
	// Every packet leaves the forwarder as it is framed, so packet 0's
	// ack comes back before the block ends.
	pkts := packetsOf(randomBytes(4, 8<<10), 4<<10)
	for _, tc := range []struct {
		name string
		hops int
		want int
	}{{"tail", 1, 1}, {"interior", 2, 3}} {
		t.Run(tc.name, func(t *testing.T) {
			c := startChain(t, tc.hops, "mem")
			addr := map[int]string{}
			if tc.hops > 1 {
				addr[1] = "stub"
				fakeMirror(t, c.net, "stub", 0)
			}
			before := pipelineGoroutines()
			pc := c.open(t, block.Block{ID: 1, Gen: 1}, 0, addr)
			defer pc.Close()
			// Once packet 0 is acked, every role of the pipeline is running.
			if err := pc.WritePacket(&pkts[0]); err != nil {
				t.Fatal(err)
			}
			if ack, err := pc.ReadAck(); err != nil || !ack.OK() {
				t.Fatalf("packet 0: ack %+v, %v", ack, err)
			}
			if got := pipelineGoroutines() - before; got != tc.want {
				t.Fatalf("an open pipeline runs %d goroutines at the %s, want %d", got, tc.name, tc.want)
			}
			for i := 1; i < len(pkts); i++ {
				if err := pc.WritePacket(&pkts[i]); err != nil {
					t.Fatal(err)
				}
			}
			for {
				ack, err := pc.ReadAck()
				if err != nil || !ack.OK() {
					t.Fatalf("ack %+v, %v", ack, err)
				}
				if ack.Seqno == pkts[len(pkts)-1].Seqno {
					break
				}
			}
			for start := time.Now(); pipelineGoroutines() != before; time.Sleep(time.Millisecond) {
				if time.Since(start) > 5*time.Second {
					t.Fatalf("%d pipeline goroutines outlive the block", pipelineGoroutines()-before)
				}
			}
		})
	}
}

// pipelineGoroutines counts the goroutines running, or started by, a
// datanode's handleWrite.
func pipelineGoroutines() int {
	buf := make([]byte, 1<<20)
	n := 0
	for _, g := range bytes.Split(buf[:runtime.Stack(buf, true)], []byte("\n\n")) {
		if bytes.Contains(g, []byte("datanode.(*Datanode).handleWrite")) {
			n++
		}
	}
	return n
}
