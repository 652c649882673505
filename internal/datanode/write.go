package datanode

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/checksum"
	"repro/internal/obs"
	"repro/internal/proto"
	"repro/internal/storage"
)

// ackSender serializes ack writes to the upstream connection: the
// receiver (every ack at the tail; refusals and the FNFA anywhere) and
// the interior relay share it.
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

// handleWrite runs one write pipeline at this datanode. The connection's
// own goroutine is the receiver; what else runs depends on the hop:
//
//	tail:     receiver: upstream packets -> verify CRC -> local store -> ack upstream
//	interior: receiver: upstream packets -> verify CRC -> local store -> forward queue
//	          forwarder: forward queue -> mirror datanode (bounded by one block)
//	          relay: mirror acks -> upstream acks, own status prepended
//
// A mirror that fails to ack a packet it was sent (an error, or no ack
// within the mirror conn's bound, see connectMirror) is named upstream
// before the pipeline comes down: the relay answers that packet
// [SUCCESS, ERROR], as HDFS does. A mirror sent nothing is not blamed;
// it went quiet because this hop's upstream did, and the hop in front of
// this one names this one. A forwarder whose write fails breaks the
// forward queue, which stops the receiver short of its commit, and
// leaves the mirror to the relay.
//
// A block's last packet is committed — and reported, and on a SMARTH
// first datanode answered with the FNFA, regardless of how far the
// mirrors have drained — before it is acked (tail) or forwarded
// (interior). So a last ack means every hop at and behind the one that
// sent it has committed.
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
	// already be writing this block's next generation here. A stale header
	// that gets through anyway meets the store's fence (storage.ErrStale).
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

	if mirror == nil {
		// The tail: the receiver is the whole pipeline, and serveConn
		// closes the upstream conn however it ends.
		dn.receiveLoop(up, hdr, w, sender, nil, nil)
		return
	}

	// --- interior: abort machinery shared by the three roles ---
	queue := newPacketQueue(forwardBuffer)
	queue.depth = dn.mQueueDepth
	var lastSeqno atomic.Int64 // the block's last seqno, once the receiver knows it
	lastSeqno.Store(-1)
	var sent atomic.Int64 // packets the forwarder has begun sending the mirror
	// abort closes upstream before the mirror, so a relay woken by the
	// mirror's close has no one left to report to.
	var abortOnce sync.Once
	abort := func() {
		abortOnce.Do(func() {
			queue.breakNow()
			up.Close()
			mirror.Close()
		})
	}

	var wg sync.WaitGroup
	wg.Add(2)

	// --- forwarder ---
	go func() {
		defer wg.Done()
		for {
			pkt, ok := queue.pop()
			if !ok {
				return
			}
			sent.Add(1)
			err := mirror.WritePacket(pkt)
			pkt.Release()
			if err != nil {
				queue.breakNow() // stops the receiver; the relay reports
				return
			}
			dn.mPacketsFwd.Inc()
		}
	}()

	// --- relay ---
	go func() {
		defer wg.Done()
		// Downstream acks arrive in packet order, and the receiver forwards
		// packets 0, 1, 2, … and nothing else, so the relay counts the
		// seqnos it expects: a skew means an ack was lost or duplicated
		// downstream, and the merged statuses would be stamped onto the
		// wrong packet. A refusal is the exception: a downstream receiver
		// sends it ahead of the acks its relay still owes, and it is
		// relayed as it came, naming the hop that refused. The merged ack
		// and its statuses are reused: down is conn-owned, and
		// sender.send finishes with the merged ack before the next
		// ReadAck.
		merged := proto.Ack{Kind: proto.AckData}
		for want := int64(0); ; want++ {
			down, err := mirror.ReadAck()
			if err != nil {
				if want < sent.Load() {
					_ = sender.send(&proto.Ack{Kind: proto.AckData, Seqno: want, Statuses: []proto.Status{proto.StatusSuccess, proto.StatusError}})
				}
				abort()
				return
			}
			if down.Seqno != want && down.OK() {
				dn.opts.Logf("datanode %s: ack seqno skew: downstream %d, expected %d",
					dn.opts.Name, down.Seqno, want)
				_ = sender.send(&proto.Ack{Kind: proto.AckData, Seqno: want, Statuses: []proto.Status{proto.StatusError}})
				abort()
				return
			}
			merged.Seqno = down.Seqno
			merged.Statuses = append(append(merged.Statuses[:0], proto.StatusSuccess), down.Statuses...)
			if sender.send(&merged) != nil {
				abort()
				return
			}
			if want == lastSeqno.Load() {
				return
			}
		}
	}()

	// --- receiver (this goroutine) ---
	// Whoever broke the queue tears down: abort, or the relay after it
	// names the forwarder's failed mirror.
	if !dn.receiveLoop(up, hdr, w, sender, queue, &lastSeqno) && !queue.isBroken() {
		abort()
	}
	queue.close()
	wg.Wait()
	mirror.Close()
}

// connectMirror opens the conn to hdr.Targets[0] with this hop stripped
// from the header, bounded by DataTimeout plus a quarter of it per
// datanode behind this hop (HDFS's per-target timeout extension), so the
// relay nearest a silent hop gives up on it first.
func (dn *Datanode) connectMirror(hdr *proto.WriteBlockHeader) (*proto.Conn, error) {
	d := dn.dialer
	d.Progress += time.Duration(len(hdr.Targets)) * dn.opts.DataTimeout / 4
	pc, _, err := d.Open(hdr.Targets[0].Addr, proto.OpWriteBlock, &proto.WriteBlockHeader{
		Block:      hdr.Block,
		Targets:    hdr.Targets[1:],
		Client:     hdr.Client,
		Mode:       hdr.Mode,
		Depth:      hdr.Depth + 1,
		BlockBytes: hdr.BlockBytes,
	})
	return pc, err
}

// receiveLoop ingests packets from the upstream conn until the block's
// last packet or an error, and reports whether the pipeline is still up.
// Each payload is read once, into the memory w lends for it (the replica
// itself, on a MemStore) or else the packet's own frame; refused unless
// it is the block's next packet; verified where it landed; appended with
// the checksums it was verified against, which the store keeps rather
// than recomputes; and then acked — at the tail, where queue is nil — or
// queued for the mirror, which sends from the same bytes. That is why
// handleWrite closes w only after the forwarder has drained. The last
// packet is committed first, unless the forwarder has broken the queue,
// and an interior hop publishes its seqno in lastSeqno before queueing
// it, for the relay to stop at.
func (dn *Datanode) receiveLoop(
	up *proto.Conn,
	hdr *proto.WriteBlockHeader,
	w storage.BlockWriter,
	sender *ackSender,
	queue *packetQueue,
	lastSeqno *atomic.Int64,
) bool {
	// The tail's acks: one reused ack, which WriteAck never retains.
	ack := proto.Ack{Kind: proto.AckData, Statuses: []proto.Status{proto.StatusSuccess}}
	var received int64
	for want := int64(0); ; want++ {
		pkt, err := up.ReadPacketInto(w)
		if err != nil {
			return false
		}
		// Snapshot the metadata before the packet changes hands: pushing
		// it to the forward queue transfers ownership to the forwarder,
		// which may WritePacket and Release it while we are still here.
		seqno, last, nData := pkt.Seqno, pkt.Last, len(pkt.Data)
		dn.mPacketsIn.Inc()
		st := proto.StatusSuccess
		switch {
		case seqno != want || pkt.Offset != received:
			// Packets arrive in order, each where the last one ended: a
			// re-sent packet would be stored twice, and the relay's seqno
			// count would stop matching the acks.
			st = proto.StatusError
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
		received += int64(nData)
		if st == proto.StatusSuccess && last {
			if queue != nil && queue.isBroken() { // the mirror failed
				pkt.Release()
				return false
			}
			st = dn.finalize(hdr, w, received, seqno, sender)
		}
		if st != proto.StatusSuccess {
			// Surface the failure upstream, then tear the pipeline down;
			// the client recovers per Algorithm 3/4.
			pkt.Release()
			_ = sender.send(&proto.Ack{Kind: proto.AckData, Seqno: seqno, Statuses: []proto.Status{st}})
			return false
		}
		if queue == nil {
			pkt.Release()
			ack.Seqno = seqno
			if sender.send(&ack) != nil {
				return false
			}
		} else {
			if last {
				lastSeqno.Store(seqno)
			}
			if !queue.push(pkt) {
				// A broken queue did not take ownership.
				pkt.Release()
				return false
			}
		}
		if last {
			return true
		}
	}
}

// finalize commits the replica of received bytes, queues its report and,
// on a SMARTH pipeline's first datanode, sends the FNFA: the whole block
// is stored here, and the client may open its next pipeline now.
func (dn *Datanode) finalize(hdr *proto.WriteBlockHeader, w storage.BlockWriter, received, seqno int64, sender *ackSender) proto.Status {
	if err := w.Commit(); err != nil {
		dn.opts.Logf("datanode %s: commit %v: %v", dn.opts.Name, hdr.Block, err)
		return proto.StatusError
	}
	finalized := hdr.Block
	finalized.NumBytes = received
	dn.mCommitted.Inc()
	dn.reportBlockReceived(finalized)
	if hdr.Depth == 0 && hdr.Mode == proto.ModeSmarth {
		dn.mFNFASent.Inc()
		_ = sender.send(&proto.Ack{Kind: proto.AckFNFA, Seqno: seqno, Statuses: []proto.Status{proto.StatusSuccess}})
	}
	return proto.StatusSuccess
}
