package datanode

import (
	"fmt"
	"io"

	"repro/internal/block"
	"repro/internal/bufpool"
	"repro/internal/checksum"
	"repro/internal/nnapi"
	"repro/internal/obs"
	"repro/internal/proto"
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
	r, sums, length, err := dn.openReplica(hdr.Block.ID)
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

	if _, err := dn.sendReplica(pc, r, sums, start, end, span); err != nil {
		span.Fail(err) // the conn drops and the reader fails over
	}
}

// openReplica opens a finalized local replica for sending: its bytes,
// its length, and the checksums captured when it was written.
func (dn *Datanode) openReplica(id block.ID) (io.ReadCloser, []uint32, int64, error) {
	r, length, err := dn.opts.Store.Open(id)
	if err != nil {
		return nil, nil, 0, err
	}
	sums, err := dn.opts.Store.Sums(id)
	if err != nil {
		r.Close()
		return nil, nil, 0, fmt.Errorf("checksums: %w", err)
	}
	return r, sums, length, nil
}

// sendReplica streams bytes [start, end) of a replica — r positioned at
// start, a chunk boundary — as packets and returns the last seqno sent.
// It is the datanode's only sender, serving readers and re-replication
// alike, and it always sends the stored checksums, never ones recomputed
// from the stored bytes: a replica that rotted on this datanode is
// refused by whoever receives it rather than laundered into a fresh
// replica with matching CRCs.
//
// The stream is corked so small reads coalesce. The buffer is pooled (one
// checkout per call, zero per packet) and the deferred uncork covers
// every return path — the Last packet flushes through the cork on the
// happy path, the uncork flushes whatever a failed stream left behind.
func (dn *Datanode) sendReplica(pc *proto.Conn, r io.Reader, sums []uint32, start, end int64, span *obs.Span) (int64, error) {
	const cs = checksum.DefaultChunkSize
	_ = pc.SetCork(true)
	defer func() { _ = pc.SetCork(false) }()
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
			return seqno, fmt.Errorf("replica truncated at %d: %w", pos+int64(m), err)
		}
		data := buf[:m]
		firstChunk := pos / cs
		lastChunk := (pos + int64(m) + cs - 1) / cs
		if int(lastChunk) > len(sums) {
			// Checksum metadata shorter than the data: corrupt.
			return seqno, fmt.Errorf("checksum metadata ends at chunk %d, data needs %d", len(sums), lastChunk)
		}
		pkt = proto.Packet{
			Seqno:  seqno,
			Offset: pos,
			Last:   pos+int64(m) >= end,
			Sums:   sums[firstChunk:lastChunk],
			Data:   data,
		}
		if err := pc.WritePacket(&pkt); err != nil {
			return seqno, err
		}
		dn.mReadPackets.Inc()
		dn.mReadBytes.Add(int64(m))
		span.Packet("send", seqno)
		if pkt.Last {
			return seqno, nil
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
	r, sums, length, err := dn.openReplica(cmd.Block.ID)
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
	last, err := dn.sendReplica(pc, r, sums, 0, length, nil)
	if err != nil {
		return err
	}
	// Wait for the last packet's ack from the whole sub-pipeline.
	for {
		ack, err := pc.ReadAck()
		if err != nil {
			return err
		}
		if !ack.OK() {
			return fmt.Errorf("packet %d refused: %v", ack.Seqno, ack.Statuses)
		}
		if ack.Kind == proto.AckData && ack.Seqno == last {
			return nil
		}
	}
}
