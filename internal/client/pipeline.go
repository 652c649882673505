package client

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"repro/internal/block"
	"repro/internal/checksum"
	"repro/internal/clock"
	"repro/internal/obs"
	"repro/internal/proto"
)

// pipelineError describes a failed pipeline and the position it blames
// (pipeline order, 0 = first), by proto.Blame's rule.
type pipelineError struct {
	lb       block.LocatedBlock
	badIndex int
	cause    error
}

func (e *pipelineError) Error() string {
	return fmt.Sprintf("pipeline %v (targets %v, bad index %d): %v",
		e.lb.Block, e.lb.Names(), e.badIndex, e.cause)
}

func (e *pipelineError) Unwrap() error { return e.cause }

// pipelineConn is one open write pipeline: the connection to the first
// datanode, shared by the pipeline's two goroutines. The sender
// (streamBlock) writes every packet and returns; the ack reader
// (schedWriter.ackReader) is the conn's only reader and the one place the
// pipeline resolves.
type pipelineConn struct {
	lb block.LocatedBlock
	pc *proto.Conn

	// lastSeqno is the seqno of the block's last packet, known before the
	// pipeline opens.
	lastSeqno int64
	// opened is when the setup ack arrived: a block's FNFA latency and
	// its speed sample are measured from here.
	opened time.Time

	// sent closes when the sender returns; from then on nothing reads the
	// block's staging buffer, so the pipeline may be reported.
	sent chan struct{}
	// failOnce makes the first failure, from either side, the pipeline's:
	// err keeps it, and the conn closes so the other side stops too. err
	// is read once sent has closed.
	failOnce sync.Once
	err      error

	// span traces this pipeline (nil when tracing is off). After a
	// successful open it is owned by the ack reader, which ends it when
	// the pipeline resolves.
	span *obs.Span
	// rtt, when non-nil, receives client→first-DN packet round trips.
	// sendNS stamps each packet's send time (nanoseconds on the client's
	// clock), indexed by seqno; guarded by mu.
	rtt    *obs.Histogram
	clk    clock.Clock
	sendNS []int64
	mu     sync.Mutex
}

// lastSeqno is the seqno of the last packet streamBlock cuts n bytes
// into: an empty block is one empty packet.
func lastSeqno(n, packetSize int) int64 { return int64(max(0, n-1) / packetSize) }

// fail ends the pipeline with err (nil: drained) unless it has already
// ended: whichever side fails first owns the blame, and closing the conn
// stops the other side.
func (p *pipelineConn) fail(err error) {
	p.failOnce.Do(func() {
		p.err = err
		p.pc.Close()
	})
}

// noteSend stamps packet seqno's send time for RTT attribution. No-op
// unless the pipeline has an RTT histogram attached.
func (p *pipelineConn) noteSend(seqno int64) {
	if p.rtt == nil || seqno < 0 {
		return
	}
	now := p.clk.Now().UnixNano()
	p.mu.Lock()
	for int64(len(p.sendNS)) <= seqno {
		p.sendNS = append(p.sendNS, 0)
	}
	p.sendNS[seqno] = now
	p.mu.Unlock()
}

// observeRTT records the round trip for an acked seqno, if its send time
// was stamped.
func (p *pipelineConn) observeRTT(seqno int64) {
	if p.rtt == nil || seqno < 0 {
		return
	}
	p.mu.Lock()
	var sent int64
	if seqno < int64(len(p.sendNS)) {
		sent = p.sendNS[seqno]
	}
	p.mu.Unlock()
	if sent > 0 {
		p.rtt.Observe(p.clk.Now().UnixNano() - sent)
	}
}

// openPipeline opens a write pipeline through the client's dialer (dial,
// header and setup ack each under the Progress bound, which then guards
// every packet write and ack read for the pipeline's lifetime); the
// block's last packet is numbered last. parent, when tracing is on,
// becomes the new pipeline span's parent (normally the block span); a
// setup failure ends the span with an error status before returning.
func (c *Client) openPipeline(lb block.LocatedBlock, mode proto.WriteMode, opts *WriteOptions, parent *obs.Span, last int64) (*pipelineConn, error) {
	span := c.obs.StartSpan("pipeline", parent)
	span.SetAttr("targets", strings.Join(lb.Names(), ">"))
	fail := func(bad int, cause error) (*pipelineConn, error) {
		e := &pipelineError{lb: lb, badIndex: bad, cause: cause}
		span.Fail(e)
		span.End()
		return nil, e
	}
	if len(lb.Targets) == 0 {
		return fail(0, errors.New("no targets"))
	}
	pc, statuses, err := c.dialer.Open(lb.Targets[0].Addr, proto.OpWriteBlock, &proto.WriteBlockHeader{
		Block:      lb.Block,
		Targets:    lb.Targets[1:],
		Client:     c.opts.Name,
		Mode:       mode,
		Depth:      0,
		BlockBytes: opts.BlockSize,
	})
	if err != nil {
		// A refusal names the datanode that failed setup; anything else
		// (dial, header, ack read) blames the one the client dialed.
		return fail(proto.Blame(statuses), err)
	}
	span.Event("setup_ack", "")
	return &pipelineConn{
		lb:        lb,
		pc:        pc,
		lastSeqno: last,
		opened:    c.clk.Now(),
		sent:      make(chan struct{}),
		span:      span,
		rtt:       c.mPacketRTT,
		clk:       c.clk,
	}, nil
}

// readAcks reads the pipeline's acks up to the one for its last seqno,
// calling onFNFA at the FIRST NODE FINISH ACK. It returns nil at the last
// ack and the pipeline error otherwise: an error ack blames the hop it
// names, anything else the first datanode.
func (p *pipelineConn) readAcks(onFNFA func()) error {
	for {
		ack, err := p.pc.ReadAck()
		if err != nil {
			return &pipelineError{lb: p.lb, cause: err}
		}
		switch ack.Kind {
		case proto.AckFNFA:
			p.span.Event("fnfa", "")
			onFNFA()
		case proto.AckData:
			p.observeRTT(ack.Seqno)
			p.span.Packet("ack", ack.Seqno)
			if !ack.OK() {
				return &pipelineError{lb: p.lb, badIndex: proto.Blame(ack.Statuses), cause: fmt.Errorf("packet %d failed: %v", ack.Seqno, ack.Statuses)}
			}
			if ack.Seqno == p.lastSeqno {
				return nil
			}
		default:
			return &pipelineError{lb: p.lb, cause: fmt.Errorf("unexpected %v ack", ack.Kind)}
		}
	}
}

// streamBlock writes data as packets of packetSize bytes — a multiple of
// the checksum chunk — into the pipeline, each carrying its slice of
// rawSums, the block's chunk checksums in wire form; the one numbered
// p.lastSeqno is Last. It returns once every packet (plus the terminal
// empty packet, if data is empty) has been handed to the transport.
func (c *Client) streamBlock(p *pipelineConn, data, rawSums []byte, packetSize int) error {
	// One reused packet struct for the whole block; WritePacket retains
	// nothing.
	const cs, sumSize = checksum.DefaultChunkSize, checksum.BytesPerChecksum
	var pkt proto.Packet
	var seqno int64
	for off := 0; off < len(data) || seqno == 0; {
		end := off + packetSize
		if end > len(data) {
			end = len(data)
		}
		pkt = proto.Packet{
			Seqno:   seqno,
			Offset:  int64(off),
			Last:    seqno == p.lastSeqno,
			RawSums: rawSums[off/cs*sumSize : checksum.NumChunks(end, cs)*sumSize],
			Data:    data[off:end],
		}
		if err := p.pc.WritePacket(&pkt); err != nil {
			return &pipelineError{lb: p.lb, cause: err}
		}
		p.noteSend(seqno)
		p.span.Packet("send", seqno)
		seqno++
		if end == off { // empty block: single empty terminal packet sent
			break
		}
		off = end
	}
	return nil
}
