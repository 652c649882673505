package datanode

import (
	"fmt"
	"io"

	"repro/internal/bufpool"
	"repro/internal/checksum"
	"repro/internal/nnapi"
	"repro/internal/obs"
	"repro/internal/proto"
	"repro/internal/storage"
)

// handleRead streams a block (or a byte range of it) back to the caller
// as packets carrying the checksums captured at write time (sendReplica).
//
// Because the stored checksums cover fixed 512-byte chunks, the served
// window is widened to chunk boundaries; packets carry their true offset
// in the block and the client trims the extra head/tail bytes.
func (dn *Datanode) handleRead(pc *proto.Conn, hdr *proto.ReadBlockHeader) {
	dn.mReads.Inc()
	span := dn.opts.Obs.StartSpan("serve_read", nil)
	defer span.End()
	span.SetAttr("datanode", dn.opts.Name)
	span.SetAttr("block", hdr.Block.String())
	span.SetAttr("range", fmt.Sprintf("%d+%d", hdr.Offset, hdr.Length))
	fail := func(err error) {
		span.Fail(err)
		_ = pc.WriteAck(&proto.Ack{Kind: proto.AckHeader, Seqno: -1, Statuses: []proto.Status{proto.StatusError}})
	}
	// The store refuses a replica whose checksums do not cover it
	// (storage.ErrCorrupt) here, before the reader is told yes, so the
	// reader fails over without taking a byte from this one.
	r, length, err := dn.opts.Store.Open(hdr.Block.ID)
	if err != nil {
		dn.opts.Logf("datanode %s: read %v: %v", dn.opts.Name, hdr.Block, err)
		fail(err)
		return
	}
	defer r.Close()

	// Clamp the request, then widen to chunk boundaries.
	offset := hdr.Offset
	if offset < 0 {
		offset = 0
	}
	if offset > length {
		offset = length
	}
	want := hdr.Length
	if want < 0 || offset+want > length {
		want = length - offset
	}
	const cs = checksum.DefaultChunkSize
	start := offset - offset%cs
	end := offset + want
	if rem := end % cs; rem != 0 {
		end += cs - rem
	}
	if end > length {
		end = length
	}

	if start > 0 {
		if seeker, ok := r.(io.Seeker); ok {
			if _, err := seeker.Seek(start, io.SeekStart); err != nil {
				fail(err)
				return
			}
		} else if _, err := io.CopyN(io.Discard, r, start); err != nil {
			fail(err)
			return
		}
	}

	if err := pc.WriteAck(&proto.Ack{Kind: proto.AckHeader, Seqno: -1, Statuses: []proto.Status{proto.StatusSuccess}}); err != nil {
		span.Fail(err)
		return
	}

	if err := dn.sendReplica(pc, r, start, end, span); err != nil {
		span.Fail(err) // the conn drops and the reader fails over
	}
}

// sendReplica streams bytes [start, end) of a replica — r positioned at
// start, a chunk boundary — as DefaultPacketSize packets. It is the
// datanode's only sender, serving readers and re-replication alike, and
// it always sends the stored checksums, never ones recomputed
// from the stored bytes: a replica that rotted on this datanode is
// refused by whoever receives it rather than laundered into a fresh
// replica with matching CRCs. Each packet carries its slice of
// r.RawSums() as they were stored, which WritePacket copies into the
// frame — no decode, no re-encode.
//
// The buffer is pooled: one checkout per call, zero per packet.
func (dn *Datanode) sendReplica(pc *proto.Conn, r storage.Replica, start, end int64, span *obs.Span) error {
	const cs, sumSize = checksum.DefaultChunkSize, checksum.BytesPerChecksum
	sums := r.RawSums()
	bp := bufpool.Get(proto.DefaultPacketSize)
	defer bufpool.Put(bp)
	buf := *bp
	var pkt proto.Packet
	var seqno int64
	pos := start
	for {
		n := int64(len(buf))
		if n > end-pos {
			n = end - pos
		}
		m, err := io.ReadFull(r, buf[:n])
		if err != nil && int64(m) != n {
			return fmt.Errorf("replica truncated at %d: %w", pos+int64(m), err)
		}
		firstChunk := pos / cs
		lastChunk := (pos + int64(m) + cs - 1) / cs
		pkt = proto.Packet{
			Seqno:   seqno,
			Offset:  pos,
			Last:    pos+int64(m) >= end,
			RawSums: sums[firstChunk*sumSize : lastChunk*sumSize],
			Data:    buf[:m],
		}
		if err := pc.WritePacket(&pkt); err != nil {
			return err
		}
		dn.mReadPackets.Inc()
		dn.mReadBytes.Add(int64(m))
		span.Packet("send", seqno)
		if pkt.Last {
			return nil
		}
		pos += int64(m)
		seqno++
	}
}

// transferBlock copies a locally finalized replica to the target
// datanodes, executing a namenode ReplicateCmd. The transfer is an
// ordinary write pipeline with this datanode in the client's place: the
// first target receives the block with the remaining targets as its
// mirrors and reports blockReceived itself, so the namenode learns about
// the new replicas the normal way. The targets sit at depth 1 and up, so
// no FNFA is emitted.
func (dn *Datanode) transferBlock(cmd nnapi.ReplicateCmd) error {
	if len(cmd.Targets) == 0 {
		return nil
	}
	r, length, err := dn.opts.Store.Open(cmd.Block.ID)
	if err != nil {
		return err
	}
	defer r.Close()
	pc, err := dn.connectMirror(&proto.WriteBlockHeader{
		Block:      cmd.Block,
		Targets:    cmd.Targets,
		Client:     dn.opts.Name,
		Mode:       proto.ModeHDFS,
		BlockBytes: length,
	})
	if err != nil {
		return err
	}
	defer pc.Close()
	// The sub-pipeline's tail acks as it stores, so its acks are read
	// while the replica is sent, up to the last packet's.
	acked := make(chan error, 1)
	go func() {
		last := max(0, length-1) / proto.DefaultPacketSize
		for {
			ack, err := pc.ReadAck()
			if err == nil && !ack.OK() {
				err = fmt.Errorf("packet %d refused: %v", ack.Seqno, ack.Statuses)
			}
			if err != nil || ack.Kind == proto.AckData && ack.Seqno == last {
				acked <- err
				return
			}
		}
	}()
	if err := dn.sendReplica(pc, r, 0, length, nil); err != nil {
		return err // the deferred Close ends the ack reader
	}
	return <-acked
}
