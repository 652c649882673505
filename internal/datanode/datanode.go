// Package datanode implements the storage server: it accepts write
// pipelines (verifying checksums, persisting packets, mirroring them to
// the next datanode, and acknowledging in reverse), serves block reads,
// and heartbeats to the namenode. In SMARTH mode the first datanode of a
// pipeline emits the FIRST NODE FINISH ACK as soon as a whole block is
// locally stored, which is what lets the client overlap pipelines.
//
// Concurrency and ownership invariants:
//
//   - One goroutine per accepted connection runs the receive loop. At a
//     pipeline's tail it is the whole pipeline: it acks each packet as
//     it stores it. An interior hop adds exactly two goroutines: a
//     forwarder draining a bounded packetQueue to the mirror, and a
//     relay turning the mirror's acks into upstream acks. Nothing else
//     touches that pipeline's conns.
//   - A packet read from upstream is owned by the receive loop until it
//     is pushed onto the forward queue, at which point the Release duty
//     transfers to the forwarder (the queue releases whatever it
//     discards on teardown). The receive loop snapshots any fields it
//     needs (seqno, last, length) into locals before pushing.
//   - Acks flow only upstream through a single ackSender per pipeline,
//     shared by the receive loop and the relay, so the upstream conn
//     never has two concurrent writers. The relay checks downstream
//     acks — conn-owned, valid until the next ReadAck — against its
//     own count of seqnos, and stops at the block's last, which the
//     receive loop publishes before it forwards that packet.
//   - Packets arrive in order (seqno 0, 1, 2, …, each at the offset
//     where the last one ended) or are refused. A block's last packet
//     is committed before it is acked or forwarded, so the last ack a
//     sender reads means every hop at and behind its peer has committed.
//   - Every sender into a pipeline drains acks while it sends — the
//     client's responder, the interior relay, transferBlock's ack
//     reader — because the tail writes acks on its receive path and
//     stops reading packets while its ack direction is full.
//   - The per-pipeline buffer rule (§IV-C): at most one block is staged
//     between receive and mirror, and a datanode serves at most one
//     active pipeline per client. That byte bound is an interior
//     receiver's only back-pressure, so unacknowledged packets never
//     delay the local commit or the FNFA.
//   - The store (internal/storage) is the only shared mutable state;
//     it serializes replica state transitions internally.
package datanode

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/block"
	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/nnapi"
	"repro/internal/obs"
	"repro/internal/proto"
	"repro/internal/rpc"
	"repro/internal/storage"
	"repro/internal/transport"
)

// Options configure a datanode.
type Options struct {
	Name         string
	Addr         string // data-transfer listen address
	Rack         string
	NamenodeAddr string
	Network      transport.Network
	Store        storage.Store
	Clock        clock.Clock
	// HeartbeatInterval defaults to core.HeartbeatInterval (3 s).
	HeartbeatInterval time.Duration
	// DataTimeout bounds every step this datanode waits on a peer for: a
	// mirror or re-replication dial, each header, packet or ack
	// read/write on upstream and mirror connections, and the dial and
	// each attempt of a namenode RPC — so a vanished or wedged peer
	// cannot pin a handler, the heartbeat loop or the reporter forever.
	// A mirror conn's is longer (connectMirror); a client's Progress must
	// outlast its first datanode's for the client to learn which hop
	// went silent, as the defaults do up to four datanodes. Zero or
	// negative selects DefaultDataTimeout.
	DataTimeout time.Duration
	// Logf, when set, receives diagnostic messages.
	Logf func(format string, args ...any)
	// Obs, when set, receives the datanode's metrics: wire-level frame
	// and byte counts, per-packet store latency, forward-queue depth,
	// and commit/FNFA counters. nil disables observability.
	Obs *obs.Obs
}

// DefaultDataTimeout is the per-operation progress bound used when
// Options.DataTimeout is unset.
const DefaultDataTimeout = 15 * time.Second

// Datanode is one storage server. Start it with Start; stop with Stop.
type Datanode struct {
	opts Options

	// nn is the namenode session and dialer opens (and arms) every data
	// connection — the same two types the client uses, each call and each
	// frame bounded by DataTimeout. The dialer's metrics are shared by all
	// of this datanode's framed conns — upstream, mirror, and read-path
	// alike — so the counters aggregate per datanode.
	nn     *rpc.Session
	dialer proto.Dialer

	// Observability handles, cached at construction (all nil when
	// Options.Obs is unset; every call site is nil-safe).
	mPacketsIn   *obs.Counter
	mPacketsFwd  *obs.Counter
	mAcksSent    *obs.Counter
	mFNFASent    *obs.Counter
	mCommitted   *obs.Counter
	mBytesStored *obs.Counter
	mStoreNS     *obs.Histogram // per-packet local store latency
	mQueueDepth  *obs.Histogram // forward-queue depth in bytes, sampled per push
	mReads       *obs.Counter   // read requests served
	mReadPackets *obs.Counter   // packets sent to readers
	mReadBytes   *obs.Counter   // payload bytes sent to readers

	listener transport.Listener
	stopOnce sync.Once

	// conns holds the data connections this datanode has open, accepted
	// and dialed, for Stop to close; nil once it has.
	connMu sync.Mutex
	conns  map[*heldConn]struct{}

	// Pending finalized-replica reports, conflated by the reporter
	// goroutine into delta block reports (blockReceivedBatch) so a burst
	// of commits costs one namenode frame instead of one RPC each.
	reportMu sync.Mutex
	reportQ  []block.Block
	reportCh chan struct{}

	stopCh chan struct{}
	wg     sync.WaitGroup
}

// New constructs a datanode (not yet started).
func New(opts Options) (*Datanode, error) {
	if opts.Name == "" || opts.Addr == "" {
		return nil, errors.New("datanode: Name and Addr are required")
	}
	if opts.Network == nil || opts.Store == nil {
		return nil, errors.New("datanode: Network and Store are required")
	}
	if opts.Clock == nil {
		opts.Clock = clock.System
	}
	if opts.HeartbeatInterval <= 0 {
		opts.HeartbeatInterval = core.HeartbeatInterval
	}
	if opts.DataTimeout <= 0 {
		opts.DataTimeout = DefaultDataTimeout
	}
	if opts.Logf == nil {
		opts.Logf = func(string, ...any) {}
	}
	dn := &Datanode{
		opts:     opts,
		nn:       rpc.NewSession(opts.Network, opts.Name, opts.NamenodeAddr, opts.DataTimeout, opts.Clock),
		dialer:   proto.Dialer{Local: opts.Name, Clock: opts.Clock, Progress: opts.DataTimeout},
		conns:    make(map[*heldConn]struct{}),
		reportCh: make(chan struct{}, 1),
		stopCh:   make(chan struct{}),
	}
	dn.dialer.Network = heldNetwork{opts.Network, dn}
	if opts.Obs != nil {
		comp := opts.Obs.Component("datanode/" + opts.Name)
		dn.dialer.Metrics = obs.NewConnMetrics(comp)
		dn.mPacketsIn = comp.Counter("packets_in")
		dn.mPacketsFwd = comp.Counter("packets_forwarded")
		dn.mAcksSent = comp.Counter("acks_sent")
		dn.mFNFASent = comp.Counter("fnfa_sent")
		dn.mCommitted = comp.Counter("blocks_committed")
		dn.mBytesStored = comp.Counter("bytes_stored")
		dn.mStoreNS = comp.Histogram("packet_store_ns")
		dn.mQueueDepth = comp.Histogram("queue_depth_bytes")
		dn.mReads = comp.Counter("reads")
		dn.mReadPackets = comp.Counter("read_packets")
		dn.mReadBytes = comp.Counter("read_bytes")
	}
	return dn, nil
}

// Name returns the datanode's logical name.
func (dn *Datanode) Name() string { return dn.opts.Name }

// Info returns the datanode's descriptor.
func (dn *Datanode) Info() block.DatanodeInfo {
	return block.DatanodeInfo{Name: dn.opts.Name, Addr: dn.opts.Addr, Rack: dn.opts.Rack}
}

// Store exposes the replica store (tests and tools).
func (dn *Datanode) Store() storage.Store { return dn.opts.Store }

// Start opens the data listener, registers with the namenode (using the
// listener's resolved address, so ":0" TCP ports work), and begins
// serving and heartbeating.
func (dn *Datanode) Start() error {
	l, err := dn.opts.Network.Listen(dn.opts.Addr)
	if err != nil {
		return fmt.Errorf("datanode %s: listen: %w", dn.opts.Name, err)
	}
	dn.listener = l
	dn.opts.Addr = l.Addr()
	if err := dn.register(); err != nil {
		l.Close()
		return fmt.Errorf("datanode %s: register: %w", dn.opts.Name, err)
	}
	dn.wg.Add(3)
	go dn.acceptLoop()
	go dn.heartbeatLoop()
	go dn.reporterLoop()
	return nil
}

// Stop is the datanode's crash on every transport: it stops accepting,
// closes every data connection it holds, served or dialed (as HDFS
// closes its xceivers), so its peers fail at once, and returns once its
// goroutines have exited. A conn accepted or dialed later closes at once.
func (dn *Datanode) Stop() {
	dn.stopOnce.Do(func() {
		close(dn.stopCh)
		if dn.listener != nil {
			dn.listener.Close()
		}
		dn.nn.Close()
		dn.connMu.Lock()
		held := dn.conns
		dn.conns = nil
		dn.connMu.Unlock()
		for c := range held {
			c.Close()
		}
		dn.wg.Wait()
	})
}

// heldConn is a data connection registered with its datanode from its
// accept or dial until its Close.
type heldConn struct {
	transport.Conn
	dn *Datanode
}

// hold registers c for Stop to close, or closes it if Stop has run.
func (dn *Datanode) hold(c transport.Conn) (transport.Conn, error) {
	dn.connMu.Lock()
	defer dn.connMu.Unlock()
	if dn.conns == nil {
		c.Close()
		return nil, transport.ErrClosed
	}
	h := &heldConn{Conn: c, dn: dn}
	dn.conns[h] = struct{}{}
	return h, nil
}

func (c *heldConn) Close() error {
	c.dn.connMu.Lock()
	delete(c.dn.conns, c)
	c.dn.connMu.Unlock()
	return c.Conn.Close()
}

// WriteBuffers keeps a socket's gather write, which proto.Conn sends a
// frame with a borrowed payload through as one writev.
func (c *heldConn) WriteBuffers(bufs *net.Buffers) (int64, error) {
	if bw, ok := c.Conn.(interface {
		WriteBuffers(*net.Buffers) (int64, error)
	}); ok {
		return bw.WriteBuffers(bufs)
	}
	return bufs.WriteTo(c.Conn)
}

// heldNetwork is what the datanode dials its data connections through:
// it holds each one it opens.
type heldNetwork struct {
	transport.Network
	dn *Datanode
}

func (n heldNetwork) Dial(local, remote string) (transport.Conn, error) {
	c, err := n.Network.Dial(local, remote)
	if err != nil {
		return nil, err
	}
	return n.dn.hold(c)
}

func (dn *Datanode) register() error {
	var blocks []block.Block
	for _, rep := range dn.opts.Store.Blocks() {
		blocks = append(blocks, rep.Block)
	}
	return dn.nn.Call(nnapi.MethodRegister, nnapi.RegisterReq{
		Name:   dn.opts.Name,
		Addr:   dn.opts.Addr,
		Rack:   dn.opts.Rack,
		Blocks: blocks,
	}, &nnapi.RegisterResp{})
}

func (dn *Datanode) heartbeatLoop() {
	defer dn.wg.Done()
	for {
		select {
		case <-dn.stopCh:
			return
		case <-dn.opts.Clock.After(dn.opts.HeartbeatInterval):
		}
		var resp nnapi.HeartbeatResp
		err := dn.nn.Call(nnapi.MethodHeartbeat, nnapi.HeartbeatReq{Name: dn.opts.Name}, &resp)
		if err != nil {
			if rpc.Answered(err) {
				// The namenode forgot us (restart): re-register.
				if rerr := dn.register(); rerr != nil {
					dn.opts.Logf("datanode %s: re-register: %v", dn.opts.Name, rerr)
				}
			}
			continue
		}
		dn.wakeReporter() // retry reports an outage left queued
		if len(resp.Invalidate) > 0 {
			// Off this goroutine: a slow store delete must not delay the
			// next heartbeat past the namenode's liveness window.
			dn.wg.Add(1)
			go func(invs []block.Block) {
				defer dn.wg.Done()
				dn.invalidate(invs)
			}(resp.Invalidate)
		}
		for _, cmd := range resp.Replicate {
			dn.wg.Add(1)
			go func() {
				defer dn.wg.Done()
				if err := dn.transferBlock(cmd); err != nil {
					dn.opts.Logf("datanode %s: replicate %v: %v", dn.opts.Name, cmd.Block, err)
				}
			}()
		}
	}
}

// invalidate deletes the replicas the namenode declared stale.
func (dn *Datanode) invalidate(invs []block.Block) {
	for _, inv := range invs {
		// Only delete replicas at or below the stale generation: a
		// recovery may have re-streamed this block here since the
		// invalidation was queued.
		info, err := dn.opts.Store.Info(inv.ID)
		if err != nil {
			continue
		}
		if info.Block.Gen > inv.Gen {
			continue
		}
		if err := dn.opts.Store.Delete(inv.ID); err != nil && !errors.Is(err, storage.ErrNotFound) {
			dn.opts.Logf("datanode %s: invalidate blk_%d: %v", dn.opts.Name, inv.ID, err)
		}
	}
}

// reportBlockReceived queues a finalized replica for the reporter
// goroutine. The write path no longer blocks on the namenode RPC; the
// reporter conflates whatever accumulated into one delta report, in
// finalization order, so a commit burst reaches the namenode as a
// single blockReceivedBatch frame.
func (dn *Datanode) reportBlockReceived(b block.Block) {
	dn.reportMu.Lock()
	dn.reportQ = append(dn.reportQ, b)
	dn.reportMu.Unlock()
	dn.wakeReporter()
}

func (dn *Datanode) wakeReporter() {
	select {
	case dn.reportCh <- struct{}{}:
	default: // a wakeup is already pending; the reporter drains everything
	}
}

// reporterLoop drains the pending-report queue into blockReceivedBatch
// delta reports. A final drain on shutdown is best-effort — the namenode
// rebuilds locations from full reports at re-registration anyway.
func (dn *Datanode) reporterLoop() {
	defer dn.wg.Done()
	for {
		select {
		case <-dn.stopCh:
			dn.flushReports()
			return
		case <-dn.reportCh:
			dn.flushReports()
		}
	}
}

// flushReports sends every currently queued report in one frame. A batch
// the namenode never answered goes back to the front of the queue, in
// order, and is re-sent after the next heartbeat that gets through; a
// batch it refused is dropped — the re-registration that follows a
// refused heartbeat carries a full report.
func (dn *Datanode) flushReports() {
	dn.reportMu.Lock()
	pending := dn.reportQ
	dn.reportQ = nil
	dn.reportMu.Unlock()
	if len(pending) == 0 {
		return
	}
	var resp nnapi.BlockReceivedBatchResp
	err := dn.nn.Call(nnapi.MethodBlockReceivedBatch, nnapi.BlockReceivedBatchReq{
		Name:   dn.opts.Name,
		Blocks: pending,
	}, &resp)
	if err == nil && resp.Rejected > 0 {
		dn.opts.Logf("datanode %s: delta report: %d of %d replicas rejected", dn.opts.Name, resp.Rejected, len(pending))
	}
	if err != nil {
		dn.opts.Logf("datanode %s: blockReceived %v: %v", dn.opts.Name, pending, err)
		if !rpc.Answered(err) {
			dn.reportMu.Lock()
			dn.reportQ = append(pending, dn.reportQ...)
			dn.reportMu.Unlock()
		}
	}
}

// --- data transfer serving ---

func (dn *Datanode) acceptLoop() {
	defer dn.wg.Done()
	for {
		conn, err := dn.listener.Accept()
		if err == nil {
			conn, err = dn.hold(conn)
		}
		if err != nil {
			return
		}
		dn.wg.Add(1)
		go func() {
			defer dn.wg.Done()
			dn.serveConn(conn)
		}()
	}
}

func (dn *Datanode) serveConn(conn transport.Conn) {
	pc := proto.NewConn(conn)
	defer pc.Close()
	dn.dialer.Arm(pc)
	op, hdr, err := pc.ReadHeader()
	if err != nil {
		return
	}
	switch op {
	case proto.OpWriteBlock:
		dn.handleWrite(pc, hdr.(*proto.WriteBlockHeader))
	case proto.OpReadBlock:
		dn.handleRead(pc, hdr.(*proto.ReadBlockHeader))
	default:
		dn.opts.Logf("datanode %s: unexpected op %v", dn.opts.Name, op)
	}
}
