package datanode

import (
	"sync"
	"time"

	"repro/internal/checksum"
	"repro/internal/obs"
	"repro/internal/proto"
	"repro/internal/storage"
)

// ackSender serializes ack writes to the upstream connection: the
// responder goroutine and the FNFA emission on the receive path share it.
type ackSender struct {
	mu  sync.Mutex
	pc  *proto.Conn
	ctr *obs.Counter // acks sent upstream (nil-safe)
}

func (s *ackSender) send(a *proto.Ack) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ctr.Inc()
	return s.pc.WriteAck(a)
}

// localStatus is the receive-path verdict for one packet, consumed by the
// responder in packet order.
type localStatus struct {
	seqno int64
	last  bool
}

// statusQueue is the FIFO of stored-but-unacknowledged packets between a
// pipeline's receiver and its responder. It grows on demand and push
// never blocks: what bounds the receiver is the byte-accounted forward
// queue (§IV-C), not the number of packets behind a slow mirror's acks —
// a SMARTH first datanode must reach its commit, and the FNFA, however
// far the mirrors lag.
type statusQueue struct {
	mu       sync.Mutex
	notEmpty *sync.Cond
	items    []localStatus
	closed   bool
}

func newStatusQueue() *statusQueue {
	q := &statusQueue{}
	q.notEmpty = sync.NewCond(&q.mu)
	return q
}

// push enqueues st; false means the queue was closed (the pipeline is
// over) and st was dropped.
func (q *statusQueue) push(st localStatus) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return false
	}
	q.items = append(q.items, st)
	q.notEmpty.Signal()
	return true
}

// pop blocks for the next status; ok=false means the queue is closed and
// drained.
func (q *statusQueue) pop() (st localStatus, ok bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for len(q.items) == 0 && !q.closed {
		q.notEmpty.Wait()
	}
	if len(q.items) == 0 {
		return localStatus{}, false
	}
	st = q.items[0]
	q.items = q.items[1:]
	return st, true
}

// close ends the queue: queued statuses remain poppable, later pushes
// are dropped. The receiver closes it on exit and abort closes it to
// release a blocked responder.
func (q *statusQueue) close() {
	q.mu.Lock()
	q.closed = true
	q.notEmpty.Broadcast()
	q.mu.Unlock()
}

// handleWrite runs one write pipeline at this datanode:
//
//	receiver: upstream packets -> verify CRC -> local store -> forward queue
//	forwarder: forward queue -> mirror datanode (bounded by one block)
//	responder: mirror acks (or local completions, on the last datanode)
//	           -> upstream acks, own status prepended
//
// On the pipeline's first datanode in SMARTH mode, committing the block
// locally triggers the FNFA upstream immediately, regardless of how far
// the mirrors have drained.
func (dn *Datanode) handleWrite(up *proto.Conn, hdr *proto.WriteBlockHeader) {
	sender := &ackSender{pc: up, ctr: dn.mAcksSent}

	// --- pipeline setup: connect the mirror chain, then ack the header ---
	// A mirror chain that connected reported success at every hop, which
	// is what the zeroed statuses already say.
	var mirror *proto.Conn
	var err error
	setupStatuses := make([]proto.Status, 1+len(hdr.Targets))
	if len(hdr.Targets) > 0 {
		if mirror, err = dn.connectMirror(hdr); err != nil {
			dn.opts.Logf("datanode %s: mirror %s: %v", dn.opts.Name, hdr.Targets[0].Name, err)
			for i := 1; i < len(setupStatuses); i++ {
				setupStatuses[i] = proto.StatusError
			}
		}
	}

	// A setup whose chain failed is refused without touching the store: by
	// the time a mirror dial times out, the client's recovery pipeline may
	// already be writing this block's next generation here.
	var w storage.BlockWriter
	if err == nil {
		if w, err = dn.opts.Store.Create(hdr.Block, true); err != nil {
			dn.opts.Logf("datanode %s: create %v: %v", dn.opts.Name, hdr.Block, err)
			setupStatuses[0] = proto.StatusError
		} else {
			// Close aborts the temp replica unless committed, and ends the
			// loan of replica memory the forwarder sends from: it runs when
			// handleWrite returns, after the forwarder has drained.
			defer w.Close()
			if h, ok := w.(storage.SizeHinter); ok && hdr.BlockBytes > 0 {
				h.SizeHint(hdr.BlockBytes)
			}
		}
	}

	headerAck := &proto.Ack{Kind: proto.AckHeader, Seqno: -1, Statuses: setupStatuses}
	if sender.send(headerAck) != nil || !headerAck.OK() {
		if mirror != nil {
			mirror.Close()
		}
		return // the client rebuilds the pipeline (Algorithm 3)
	}

	// --- abort machinery shared by the three roles ---
	queue := newPacketQueue(forwardBuffer)
	queue.depth = dn.mQueueDepth
	statuses := newStatusQueue()
	var abortOnce sync.Once
	abort := func() {
		abortOnce.Do(func() {
			statuses.close()
			queue.breakNow()
			if mirror != nil {
				mirror.Close()
			}
			up.Close()
		})
	}

	var wg sync.WaitGroup

	// --- forwarder ---
	if mirror != nil {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Cork the mirror: packets coalesce in the write buffer and
			// reach the wire when it fills or on the Last packet. The
			// reverse ack channel is a separate conn, so nothing
			// latency-sensitive sits behind the cork.
			_ = mirror.SetCork(true)
			for {
				pkt, ok := queue.pop()
				if !ok {
					// Drained (or broken): push out anything still corked.
					_ = mirror.Flush()
					return
				}
				err := mirror.WritePacket(pkt)
				pkt.Release()
				if err != nil {
					abort()
					return
				}
				dn.mPacketsFwd.Inc()
			}
		}()
	}

	// --- responder ---
	wg.Add(1)
	go func() {
		defer wg.Done()
		if mirror == nil {
			// Last datanode: acknowledge each locally stored packet. One
			// reused ack; WriteAck never retains it.
			ack := proto.Ack{Kind: proto.AckData, Statuses: []proto.Status{proto.StatusSuccess}}
			for {
				st, ok := statuses.pop()
				if !ok {
					return
				}
				ack.Seqno = st.seqno
				if sender.send(&ack) != nil {
					abort()
					return
				}
				if st.last {
					return
				}
			}
		}
		// Interior datanode: merge downstream acks with local verdicts.
		// Both sides deliver packets in order, so the pairing must agree
		// on the seqno; a skew means an ack was lost or duplicated and
		// the merged statuses would be stamped onto the wrong packet.
		// The merged ack and its statuses are per-loop scratch: downAck
		// is conn-owned and sender.send finishes with the merged ack
		// before the next ReadAck overwrites it.
		merged := proto.Ack{Kind: proto.AckData}
		for {
			downAck, err := mirror.ReadAck()
			if err != nil {
				abort()
				return
			}
			st, ok := statuses.pop()
			if !ok {
				abort()
				return
			}
			if downAck.Seqno != st.seqno {
				dn.opts.Logf("datanode %s: ack seqno skew: downstream %d, local %d",
					dn.opts.Name, downAck.Seqno, st.seqno)
				_ = sender.send(&proto.Ack{
					Kind:     proto.AckData,
					Seqno:    st.seqno,
					Statuses: []proto.Status{proto.StatusError},
				})
				abort()
				return
			}
			merged.Seqno = downAck.Seqno
			merged.Statuses = append(merged.Statuses[:0], proto.StatusSuccess)
			merged.Statuses = append(merged.Statuses, downAck.Statuses...)
			if sender.send(&merged) != nil {
				abort()
				return
			}
			if st.last {
				return
			}
		}
	}()

	// --- receiver (this goroutine) ---
	dn.receiveLoop(up, hdr, w, mirror != nil, queue, statuses, sender, abort)

	queue.close()
	wg.Wait()
	if mirror != nil {
		mirror.Close()
	}
}

// connectMirror opens the conn to hdr.Targets[0] with this hop stripped
// from the header.
func (dn *Datanode) connectMirror(hdr *proto.WriteBlockHeader) (*proto.Conn, error) {
	pc, _, err := dn.dialer.Open(hdr.Targets[0].Addr, proto.OpWriteBlock, &proto.WriteBlockHeader{
		Block:      hdr.Block,
		Targets:    hdr.Targets[1:],
		Client:     hdr.Client,
		Mode:       hdr.Mode,
		Depth:      hdr.Depth + 1,
		BlockBytes: hdr.BlockBytes,
	})
	return pc, err
}

// receiveLoop ingests packets from the upstream conn until the last
// packet, an error, or abort. Each payload is read once, into the memory
// w lends for it (the replica itself, on a MemStore) or else the packet's
// own frame; verified where it landed; appended with the checksums it was
// verified against, which the store keeps rather than recomputes; and
// queued for the mirror, which sends from the same bytes. That is why
// handleWrite closes w only after the forwarder has drained.
func (dn *Datanode) receiveLoop(
	up *proto.Conn,
	hdr *proto.WriteBlockHeader,
	w storage.BlockWriter,
	hasMirror bool,
	queue *packetQueue,
	statuses *statusQueue,
	sender *ackSender,
	abort func(),
) {
	defer statuses.close()
	var received int64
	for {
		pkt, err := up.ReadPacketInto(w)
		if err != nil {
			abort()
			return
		}
		// Snapshot the metadata before the packet changes hands: pushing
		// it to the forward queue transfers ownership to the forwarder,
		// which may WritePacket and Release it while we are still here.
		seqno, last, nData := pkt.Seqno, pkt.Last, len(pkt.Data)
		dn.mPacketsIn.Inc()
		st := proto.StatusSuccess
		switch {
		case !last && nData%checksum.DefaultChunkSize != 0:
			// Interior packets carry whole chunks (HDFS's rule); the stored
			// checksums would otherwise stop lining up with the bytes.
			st = proto.StatusError
		case checksum.VerifyEncoded(pkt.Data, pkt.RawSums, checksum.DefaultChunkSize) != nil:
			st = proto.StatusErrorChecksum
		case nData > 0:
			// Time the local store only when the histogram exists: the
			// two clock reads are not free on the per-packet path.
			var t0 time.Time
			if dn.mStoreNS != nil {
				t0 = dn.opts.Clock.Now()
			}
			if w.Append(pkt.Data, pkt.RawSums) != nil {
				st = proto.StatusError
			}
			if dn.mStoreNS != nil {
				dn.mStoreNS.ObserveSince(t0, dn.opts.Clock.Now())
			}
			dn.mBytesStored.Add(int64(nData))
		}
		if st != proto.StatusSuccess {
			// Surface the failure upstream, then tear the pipeline down;
			// the client recovers per Algorithm 3/4.
			pkt.Release()
			_ = sender.send(&proto.Ack{Kind: proto.AckData, Seqno: seqno, Statuses: []proto.Status{st}})
			abort()
			return
		}
		received += int64(nData)
		if hasMirror {
			if !queue.push(pkt) {
				// A broken queue did not take ownership.
				pkt.Release()
				abort()
				return
			}
		} else {
			pkt.Release()
		}
		if !statuses.push(localStatus{seqno: seqno, last: last}) {
			return // aborted
		}
		if last {
			if err := w.Commit(); err != nil {
				dn.opts.Logf("datanode %s: commit %v: %v", dn.opts.Name, hdr.Block, err)
				abort()
				return
			}
			finalized := hdr.Block
			finalized.NumBytes = received
			dn.mCommitted.Inc()
			dn.reportBlockReceived(finalized)
			if hdr.Depth == 0 && hdr.Mode == proto.ModeSmarth {
				// FIRST NODE FINISH ACK: the whole block is stored here;
				// the client may open its next pipeline now.
				dn.mFNFASent.Inc()
				_ = sender.send(&proto.Ack{Kind: proto.AckFNFA, Seqno: seqno, Statuses: []proto.Status{proto.StatusSuccess}})
			}
			return
		}
	}
}
