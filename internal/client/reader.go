package client

import (
	"errors"
	"fmt"
	"io"
	"time"

	"repro/internal/block"
	"repro/internal/bufpool"
	"repro/internal/checksum"
	"repro/internal/obs"
	"repro/internal/proto"
)

// Open returns a streaming reader over the whole file, bounded by the
// client's Progress timeout. Blocks are fetched
// packet by packet (no whole-block buffering), checksums are verified
// end to end, and a replica failing mid-block triggers a transparent
// failover: the stream resumes from the exact byte offset on another
// replica via a ranged read. While one block drains, the next block's
// replica is dialed and handshaken in the background, so the inter-block
// stall is one buffer swap instead of a dial+handshake round trip.
func (c *Client) Open(path string) (io.ReadCloser, error) {
	return c.open(path, 0, -1)
}

// ReadAll fetches an entire file into memory.
func (c *Client) ReadAll(path string) ([]byte, error) {
	return c.ReadRange(path, 0, -1)
}

// ReadRange fetches length bytes starting at offset (length < 0 means to
// end of file) through the same reader as Open, limited to the blocks
// the range touches. Bytes stream straight into the result slice.
func (c *Client) ReadRange(path string, offset, length int64) ([]byte, error) {
	r, err := c.open(path, offset, length)
	if err != nil {
		return nil, err
	}
	out := make([]byte, r.size)
	_, err = io.ReadFull(r, out)
	if cerr := r.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	return out, nil
}

// open returns a reader over [offset, offset+length) of path, clamped to
// the file (length < 0 means to end of file), whose block list holds
// only the blocks that window touches.
func (c *Client) open(path string, offset, length int64) (*fileReader, error) {
	if offset < 0 {
		return nil, fmt.Errorf("client: negative offset %d", offset)
	}
	loc, err := c.getBlockLocations(path)
	if err != nil {
		return nil, err
	}
	var fileLen int64
	for _, lb := range loc.Blocks {
		fileLen += lb.Block.NumBytes
	}
	offset = min(offset, fileLen)
	if length < 0 || length > fileLen-offset {
		length = fileLen - offset
	}
	r := &fileReader{c: c, size: length}
	// Trim to loc.Blocks[lo:hi], the blocks that intersect the window;
	// from and end are block-relative offsets into the first and last.
	lo, hi := 0, 0
	var blockStart int64
	for i, lb := range loc.Blocks {
		blockEnd := blockStart + lb.Block.NumBytes
		if blockEnd > offset && blockStart < offset+length {
			if hi == 0 {
				lo, r.from = i, offset-blockStart
			}
			hi = i + 1
			r.end = min(blockEnd, offset+length) - blockStart
		}
		blockStart = blockEnd
	}
	r.blocks = loc.Blocks[lo:hi]
	r.span = c.obs.StartSpan("read", nil)
	r.span.SetAttr("path", path)
	r.span.SetAttr("range", fmt.Sprintf("%d+%d", offset, length))
	return r, nil
}

// fileReader streams a window of a file block by block, prefetching the
// next block's stream while the current one drains.
type fileReader struct {
	c      *Client
	blocks []block.LocatedBlock // the blocks the window touches
	from   int64                // window start within blocks[0]
	end    int64                // window end within blocks[len-1]
	size   int64                // window length in bytes
	span   *obs.Span

	idx      int
	cur      *blockStream
	pre      chan *blockStream // in-flight prefetch, nil when none
	preIdx   int               // block index the prefetch is for
	closeErr error             // first stream close error, surfaced by Close
	closed   bool
}

func (r *fileReader) Read(p []byte) (int, error) {
	if r.closed {
		return 0, errors.New("client: read from closed file")
	}
	// io.Reader contract: a zero-length read reports (0, nil) without
	// blocking instead of spinning on a block stream that has buffered
	// data it cannot hand over.
	if len(p) == 0 {
		return 0, nil
	}
	for {
		if r.cur == nil {
			if r.idx >= len(r.blocks) {
				return 0, io.EOF
			}
			r.cur = r.nextStream()
			r.prefetchNext()
		}
		n, err := r.cur.Read(p)
		if n > 0 {
			return n, nil
		}
		if err == io.EOF {
			if cerr := r.cur.Close(); cerr != nil && r.closeErr == nil {
				r.closeErr = cerr
			}
			r.cur = nil
			r.idx++
			continue
		}
		if err != nil {
			r.span.Fail(err)
			return 0, err
		}
	}
}

// nextStream returns the stream for blocks[idx], preferring a finished
// prefetch over a cold dial.
func (r *fileReader) nextStream() *blockStream {
	if r.pre != nil && r.preIdx == r.idx {
		bs := <-r.pre
		r.pre = nil
		return bs
	}
	return r.stream(r.idx)
}

// stream builds the stream for blocks[i], cut to the window: the first
// block starts at from, the last ends at end.
func (r *fileReader) stream(i int) *blockStream {
	lb := r.blocks[i]
	from, end := int64(0), lb.Block.NumBytes
	if i == 0 {
		from = r.from
	}
	if i == len(r.blocks)-1 {
		end = r.end
	}
	return newBlockStream(r.c, lb, from, end-from, r.span)
}

// prefetchNext dials and handshakes the following block's stream in the
// background — the read-side analog of SMARTH's pipeline overlap: the
// next transfer is set up while the current one drains.
func (r *fileReader) prefetchNext() {
	if r.pre != nil {
		return
	}
	next := r.idx + 1
	if next >= len(r.blocks) {
		return
	}
	bs := r.stream(next)
	ch := make(chan *blockStream, 1)
	r.pre, r.preIdx = ch, next
	go func() {
		bs.preconnect()
		ch <- bs
	}()
}

func (r *fileReader) Close() error {
	if r.closed {
		return nil
	}
	r.closed = true
	err := r.closeErr
	if r.cur != nil {
		if cerr := r.cur.Close(); err == nil {
			err = cerr
		}
		r.cur = nil
	}
	if r.pre != nil {
		// Don't block on an in-flight dial; reap the abandoned stream
		// when the prefetch goroutine hands it over.
		ch := r.pre
		r.pre = nil
		go func() { (<-ch).Close() }()
	}
	r.span.End()
	return err
}

// blockStream reads [offset, offset+length) of one block, packet by
// packet, from one replica at a time on the Read caller's goroutine,
// failing over to the next replica on any error. It is the proto.Lender
// of its own packets: a payload that starts at the stream's position and
// fits lands in the caller's buffer and is verified there; any other
// lands in the stream's scratch and the wanted part is copied out. Either
// way a byte is copied at most once after the socket.
//
// Single-caller, like the fileReader above it: no locks. A prefetched
// stream is dialed (preconnect) on the prefetch goroutine and handed to
// the reader over a channel before its first Read.
type blockStream struct {
	c    *Client
	lb   block.LocatedBlock
	span *obs.Span

	next    int64  // absolute block offset of the next byte to deliver
	end     int64  // absolute block offset one past the last byte wanted
	dst     []byte // the running Read's destination, for Lend; nil between Reads
	buf     []byte // undelivered bytes; aliases scratch
	scratch *[]byte

	pc     *proto.Conn        // the replica being read; nil between replicas
	target block.DatanodeInfo // the replica pc is connected to
	tried  map[string]bool    // replicas that failed since the last progress
	closed bool
}

// newBlockStream reads [offset, offset+length) of lb, a window inside
// the block.
func newBlockStream(c *Client, lb block.LocatedBlock, offset, length int64, parent *obs.Span) *blockStream {
	b := &blockStream{
		c:     c,
		lb:    lb,
		next:  offset,
		end:   offset + length,
		tried: make(map[string]bool),
	}
	b.span = c.obs.StartSpan("block_read", parent)
	b.span.SetAttr("block", lb.Block.String())
	b.span.SetAttr("range", fmt.Sprintf("%d+%d", offset, length))
	c.mBlocksRead.Inc()
	return b
}

func (b *blockStream) Close() error {
	if b.closed {
		return nil
	}
	b.closed = true
	var err error
	if b.pc != nil {
		err = b.pc.Close()
		b.pc = nil
	}
	if b.scratch != nil {
		b.buf = nil
		bufpool.Put(b.scratch)
		b.scratch = nil
	}
	b.span.End()
	return err
}

func (b *blockStream) Read(p []byte) (int, error) {
	if b.closed {
		return 0, errors.New("client: read from closed block stream")
	}
	if len(p) == 0 {
		return 0, nil
	}
	b.dst = p
	defer func() { b.dst = nil }()
	for {
		if len(b.buf) > 0 {
			n := copy(p, b.buf)
			b.buf = b.buf[n:]
			return n, nil
		}
		if b.next >= b.end {
			return 0, io.EOF
		}
		n, err := b.fill()
		if err != nil {
			b.span.Fail(err)
			return 0, err
		}
		if n > 0 {
			return n, nil
		}
	}
}

// Lend implements proto.Lender for the stream's own packets: the
// running Read's destination when the payload is exactly what it wants
// next and fits, the scratch buffer otherwise.
func (b *blockStream) Lend(offset int64, n int) []byte {
	if offset == b.next && n <= len(b.dst) {
		return b.dst
	}
	if b.scratch != nil && cap(*b.scratch) < n {
		bufpool.Put(b.scratch)
		b.scratch = nil
	}
	if b.scratch == nil {
		b.scratch = bufpool.Get(max(n, proto.DefaultPacketSize))
	}
	return (*b.scratch)[:n]
}

// fill blocks until one more packet's worth of wanted bytes has arrived:
// n of them straight in the running Read's destination, or else in buf.
// Each packet read runs under the Progress deadline. Per-replica
// failures are absorbed here — drop the replica, reconnect at the current
// offset, keep reading — and only a terminal error (every replica
// exhausted) is returned.
func (b *blockStream) fill() (n int, err error) {
	var fillStart time.Time
	if b.c.mReadFill != nil {
		fillStart = b.c.clk.Now()
	}
	for {
		if b.pc == nil {
			if err := b.connect(); err != nil {
				return 0, err
			}
		}
		pkt, err := b.pc.ReadPacketInto(b)
		if err == nil {
			n, err = b.consume(pkt)
		}
		if err != nil {
			b.failover(err)
			if n > 0 || len(b.buf) > 0 {
				// The packet carried verified bytes before the stream
				// ended short: deliver them; the next fill reconnects.
				return n, nil
			}
			continue
		}
		if b.c.mReadFill != nil {
			b.c.mReadFill.ObserveSince(fillStart, b.c.clk.Now())
		}
		return n, nil
	}
}

// failover drops the current replica after an error mid-stream and puts
// it on the tried list so reconnects skip it until progress resets the
// budget.
func (b *blockStream) failover(cause error) {
	b.pc.Close()
	b.pc = nil
	b.tried[b.target.Name] = true
	b.c.mReadFailover.Inc()
	b.c.opts.Logf("client %s: block %v stream from %s failed at %d: %v",
		b.c.opts.Name, b.lb.Block, b.target.Name, b.next, cause)
	b.span.Event("failover", b.target.Name+": "+cause.Error())
}

// consume verifies one packet where it landed and trims it to the wanted
// window (the datanode widens to checksum-chunk boundaries, so a stream
// resumed mid-chunk restarts behind the current offset). It returns how
// many wanted bytes now sit at the start of the running Read's
// destination; a payload that landed in scratch leaves them in buf
// instead. A packet that fails verification delivers nothing, wherever
// it landed.
func (b *blockStream) consume(pkt *proto.Packet) (int, error) {
	defer pkt.Release()
	if err := checksum.VerifyEncoded(pkt.Data, pkt.RawSums, checksum.DefaultChunkSize); err != nil {
		return 0, err
	}
	data := pkt.Data
	if pkt.Offset > b.next {
		return 0, fmt.Errorf("client: datanode skipped ahead: packet at %d, want %d", pkt.Offset, b.next)
	}
	if head := b.next - pkt.Offset; head > 0 {
		if head >= int64(len(data)) {
			data = nil
		} else {
			data = data[head:]
		}
	}
	if over := (b.next + int64(len(data))) - b.end; over > 0 {
		data = data[:int64(len(data))-over]
	}
	direct := 0
	switch {
	case len(data) == 0:
	case &data[0] == &b.dst[0]:
		direct = len(data)
	default:
		b.buf = data // in scratch (Lend never declines), which outlives the packet
	}
	if len(data) > 0 && len(b.tried) > 0 {
		// Successful progress resets the failover budget.
		b.tried = make(map[string]bool)
	}
	b.next += int64(len(data))
	b.span.Packet("packet", pkt.Seqno)
	if pkt.Last && b.next < b.end {
		return direct, io.ErrUnexpectedEOF
	}
	return direct, nil
}

// connect dials the next untried replica and performs the read handshake
// from the current offset.
func (b *blockStream) connect() error {
	var lastErr error = fmt.Errorf("client: block %v has no locations", b.lb.Block)
	for _, target := range b.lb.Targets {
		if b.tried[target.Name] {
			continue
		}
		if err := b.dialTarget(target); err != nil {
			b.tried[target.Name] = true
			lastErr = err
			b.c.opts.Logf("client %s: read %v from %s: %v", b.c.opts.Name, b.lb.Block, target.Name, err)
			continue
		}
		return nil
	}
	return fmt.Errorf("client: block %v unreadable from all replicas: %w", b.lb.Block, lastErr)
}

// preconnect dials the nearest replica ahead of the first Read — the
// prefetch path. Best effort: a failure leaves the stream unconnected and
// the first fill tries every replica.
func (b *blockStream) preconnect() {
	if len(b.lb.Targets) > 0 {
		b.dialTarget(b.lb.Targets[0])
	}
}

// dialTarget connects the stream to target at the current offset through
// the client's dialer: dial, header, setup ack and then every packet read
// run under the Progress bound.
func (b *blockStream) dialTarget(target block.DatanodeInfo) error {
	hdr := &proto.ReadBlockHeader{Block: b.lb.Block, Offset: b.next, Length: b.end - b.next}
	pc, _, err := b.c.dialer.Open(target.Addr, proto.OpReadBlock, hdr)
	if err != nil {
		return err
	}
	b.pc, b.target = pc, target
	b.span.Event("connect", target.Name)
	return nil
}
