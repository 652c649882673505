package proto

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"repro/internal/block"
	"repro/internal/bufpool"
	"repro/internal/checksum"
	"repro/internal/clock"
	"repro/internal/obs"
	"repro/internal/wire"
)

// packetPool recycles Packet structs between ReadPacket and Release.
var packetPool = sync.Pool{New: func() any { return new(Packet) }}

// releaseFrame returns a pooled frame buffer. nil is ignored.
func releaseFrame(fr *[]byte) { bufpool.Put(fr) }

// deadlineSetter is the subset of net.Conn deadline control that
// transport conns implement; streams without it simply don't support
// timeouts (SetReadTimeout/SetWriteTimeout become no-ops).
type deadlineSetter interface {
	SetReadDeadline(t time.Time) error
	SetWriteDeadline(t time.Time) error
}

// buffersWriter is implemented by streams that can emit a vector of
// buffers in one gather call (writev on the TCP substrate). The frame
// writer duck-types on it at flush time; streams without it get
// sequential writes, which is behaviorally identical.
type buffersWriter interface {
	WriteBuffers(*net.Buffers) (int64, error)
}

const (
	// borrowMin is the smallest frame tail worth sending as its own
	// write vector. Tails at least this large are borrowed (zero-copy)
	// and force a flush before writeFrame returns, which is what keeps
	// WritePacket's "never retains any field" contract true; smaller
	// tails are copied into the staging buffer so tiny frames coalesce.
	borrowMin = 4 << 10

	// defaultCorkBytes is the pending-byte threshold at which a corked
	// conn flushes anyway. Matches the write-buffer size the pre-vectored
	// implementation flushed at.
	defaultCorkBytes = 128 << 10

	// directReadMin is the smallest body remainder read straight from
	// the underlying stream instead of through the read buffer, skipping
	// one copy. Below it, going through bufio is cheaper than a syscall.
	directReadMin = 512

	// readBufSize sizes the buffered reader. It only needs to cover
	// frame prefixes and small control frames (acks, a packet's header
	// plus the 512 B of checksums a 64 KB payload carries: 541 B); bodies
	// scatter straight to where they are going via readBody. A pipeline
	// holds six of these (two conns at each of three hops) for one block.
	readBufSize = 1 << 10

	// packetHeaderSize is a data packet's fixed part: seqno, offset,
	// flags, checksum count, payload length.
	packetHeaderSize = 25
)

// wspan is one pending write vector: either a range of frameWriter.stage
// (ext nil) or a borrowed external buffer. Stage spans hold offsets, not
// slices, so stage may reallocate while spans are pending.
type wspan struct {
	ext      []byte
	off, end int
}

// frameWriter accumulates frames as write vectors and emits them in one
// gather write per flush. Small byte runs are copied into stage (adjacent
// runs merge into one span); large payloads are borrowed and flushed
// before the caller regains ownership.
type frameWriter struct {
	w  io.Writer
	bw buffersWriter // non-nil when w supports gather writes

	stage   []byte
	spans   []wspan
	pending int

	vecs   [][]byte    // flush scratch; cleared of refs after use
	gather net.Buffers // header handed to WriteBuffers, which advances it
}

// stageBytes copies p into the staging buffer, merging with the previous
// span when contiguous.
func (f *frameWriter) stageBytes(p []byte) {
	if len(p) == 0 {
		return
	}
	off := len(f.stage)
	f.stage = append(f.stage, p...)
	if n := len(f.spans); n > 0 && f.spans[n-1].ext == nil && f.spans[n-1].end == off {
		f.spans[n-1].end = len(f.stage)
	} else {
		f.spans = append(f.spans, wspan{off: off, end: len(f.stage)})
	}
	f.pending += len(p)
}

// borrow appends p as its own vector without copying. The caller must
// flush before p's owner may reuse it.
func (f *frameWriter) borrow(p []byte) {
	if len(p) == 0 {
		return
	}
	f.spans = append(f.spans, wspan{ext: p})
	f.pending += len(p)
}

// flush writes every pending span — one writev when the stream supports
// gather writes, sequential writes otherwise — and resets the writer.
// External buffer references are dropped either way.
func (f *frameWriter) flush() error {
	if len(f.spans) == 0 {
		return nil
	}
	f.vecs = f.vecs[:0]
	for _, s := range f.spans {
		if s.ext != nil {
			f.vecs = append(f.vecs, s.ext)
		} else {
			f.vecs = append(f.vecs, f.stage[s.off:s.end])
		}
	}
	var err error
	if f.bw != nil && len(f.vecs) > 1 {
		// Hand WriteBuffers its own slice header: it advances (and may
		// re-slice entries of) whatever it is given, and f.vecs must keep
		// spanning the whole backing array so the cleanup below sees every
		// entry.
		f.gather = f.vecs
		_, err = f.bw.WriteBuffers(&f.gather)
		f.gather = nil
	} else {
		for _, v := range f.vecs {
			if _, werr := f.w.Write(v); werr != nil {
				err = werr
				break
			}
		}
	}
	// Drop payload references: pending borrowed buffers must not outlive
	// the flush (their owners recycle them).
	for i := range f.vecs {
		f.vecs[i] = nil
	}
	f.vecs = f.vecs[:0]
	f.spans = f.spans[:0]
	f.stage = f.stage[:0]
	f.pending = 0
	return err
}

// Conn wraps a stream with buffered, frame-oriented message I/O. It is
// safe for one concurrent reader and one concurrent writer, which matches
// pipeline usage (packets flow one way, acks the other on a second Conn).
type Conn struct {
	r   *bufio.Reader
	raw io.ReadWriter // underlying stream, for scatter body reads
	fw  frameWriter
	c   io.Closer
	d   deadlineSetter

	// corked suppresses the per-data-packet flush (see SetCork); owned by
	// the writing side, like fw.
	corked bool

	// whdr/rhdr are length-prefix scratch and phdr is ReadPacketInto's
	// packet-header scratch — fields rather than locals so they don't
	// escape per frame.
	whdr [4]byte
	rhdr [4]byte
	phdr [packetHeaderSize]byte

	// ack and ackStatuses back the *Ack returned by ReadAck, so the
	// per-packet ack stream decodes without allocating. Owned by the
	// reading side, like r.
	ack         Ack
	ackStatuses []Status

	// metrics, when set, receives frame-level counters (bytes and frames
	// each way, flushes, corked frames). All increments are atomic and
	// allocation-free, so metrics may stay attached on the hot path; one
	// ConnMetrics may be shared by many conns to aggregate per component.
	metrics *obs.ConnMetrics

	// timeout, measured on clk, bounds each frame read and each frame
	// write (a progress bound, re-armed per operation); <= 0 disables it.
	// Like metrics it is set once by Dialer.Arm, before the conn carries
	// traffic, so the reader and the writer consult plain fields.
	clk     clock.Clock
	timeout time.Duration
}

// NewConn wraps rw. If rw is an io.Closer, Close closes it; if it
// supports deadlines, per-operation timeouts become available; if it
// supports gather writes (WriteBuffers), frames go out as one writev.
func NewConn(rw io.ReadWriter) *Conn {
	c, _ := rw.(io.Closer)
	d, _ := rw.(deadlineSetter)
	bw, _ := rw.(buffersWriter)
	cn := &Conn{
		r:   bufio.NewReaderSize(rw, readBufSize),
		raw: rw,
		fw:  frameWriter{w: rw, bw: bw},
		c:   c,
		d:   d,
	}
	return cn
}

// armRead applies the per-operation read deadline, if any.
func (c *Conn) armRead() {
	if c.timeout > 0 {
		c.d.SetReadDeadline(c.clk.Now().Add(c.timeout))
	}
}

// armWrite applies the per-operation write deadline, if any.
func (c *Conn) armWrite() {
	if c.timeout > 0 {
		c.d.SetWriteDeadline(c.clk.Now().Add(c.timeout))
	}
}

// Close closes the underlying stream if it is closable.
func (c *Conn) Close() error {
	if c.c != nil {
		return c.c.Close()
	}
	return nil
}

// Flush forces buffered writes onto the wire.
func (c *Conn) Flush() error { return c.flushPending() }

// SetCork toggles corked output. While corked, data packets are not
// flushed per frame: small frames accumulate and reach the wire once
// defaultCorkBytes are pending, when a Last packet is written, or on an
// explicit Flush. Large packet payloads always flush —
// they are borrowed zero-copy and must not outlive WritePacket — so the
// cork only ever delays cheap-to-buffer control-sized frames. Headers
// and acks always flush eagerly regardless: they are latency-sensitive
// control traffic (pipeline setup, per-packet acks, the FNFA) that must
// never sit behind a cork. Uncorking flushes whatever is pending.
//
// Like writes themselves, SetCork belongs to the Conn's single writing
// goroutine.
func (c *Conn) SetCork(on bool) error {
	c.corked = on
	if !on {
		return c.flushPending()
	}
	return nil
}

// flushPending arms the write deadline and pushes every pending span to
// the wire in one gather write.
func (c *Conn) flushPending() error {
	if c.fw.pending == 0 && len(c.fw.spans) == 0 {
		return nil
	}
	c.armWrite()
	return c.fw.flush()
}

// writeFrame stages one length-prefixed frame whose payload is the
// concatenation of head and tail (either may be empty). head is copied
// into the staging buffer; a tail of borrowMin or more rides as its own
// write vector straight from the caller's buffer, never memcpy'd, at the
// cost of an immediate flush (the caller owns tail again when we
// return). flush=false leaves small frames pending (corked packet
// traffic) until defaultCorkBytes have accumulated.
func (c *Conn) writeFrame(head, tail []byte, flush bool) error {
	n := len(head) + len(tail)
	if n > MaxFrame {
		return fmt.Errorf("proto: frame of %d bytes exceeds max %d", n, MaxFrame)
	}
	binary.BigEndian.PutUint32(c.whdr[:], uint32(n))
	c.fw.stageBytes(c.whdr[:])
	c.fw.stageBytes(head)
	borrowed := len(tail) >= borrowMin
	if borrowed {
		c.fw.borrow(tail)
	} else {
		c.fw.stageBytes(tail)
	}
	if m := c.metrics; m != nil {
		m.FramesOut.Inc()
		m.BytesOut.Add(int64(4 + n))
	}
	if !flush && !borrowed && c.fw.pending < defaultCorkBytes {
		if m := c.metrics; m != nil {
			m.CorkedFrames.Inc()
		}
		return nil
	}
	if m := c.metrics; m != nil {
		m.Flushes.Inc()
	}
	return c.flushPending()
}

// readBody scatter-fills dst with the current frame's body: buffered
// bytes drain first, then large remainders read straight from the
// underlying stream into dst (one copy, no bufio detour). EOF after the
// frame prefix is torn-frame corruption, surfaced as ErrUnexpectedEOF
// once any body byte arrived (matching io.ReadFull).
func (c *Conn) readBody(dst []byte) error {
	got := 0
	for got < len(dst) {
		if b := c.r.Buffered(); b > 0 {
			m := len(dst) - got
			if m > b {
				m = b
			}
			k, err := c.r.Read(dst[got : got+m])
			got += k
			if err != nil {
				return err
			}
			continue
		}
		rest := dst[got:]
		if len(rest) >= directReadMin {
			k, err := c.raw.Read(rest)
			got += k
			if err != nil {
				if err == io.EOF && got > 0 {
					err = io.ErrUnexpectedEOF
				}
				return err
			}
			continue
		}
		k, err := io.ReadFull(c.r, rest)
		got += k
		if err != nil {
			if err == io.EOF && got > 0 {
				err = io.ErrUnexpectedEOF
			}
			return err
		}
	}
	return nil
}

// readPrefix arms the read deadline and reads the next frame's length.
func (c *Conn) readPrefix() (int, error) {
	c.armRead()
	if _, err := io.ReadFull(c.r, c.rhdr[:]); err != nil {
		return 0, err
	}
	n := binary.BigEndian.Uint32(c.rhdr[:])
	if n > MaxFrame {
		return 0, fmt.Errorf("proto: incoming frame of %d bytes exceeds max %d", n, MaxFrame)
	}
	return int(n), nil
}

// countFrameIn records one received frame of n payload bytes.
func (c *Conn) countFrameIn(n int) {
	if m := c.metrics; m != nil {
		m.FramesIn.Inc()
		m.BytesIn.Add(int64(4 + n))
	}
}

// readFrame reads one length-prefixed frame into a pooled buffer. The
// caller owns the returned buffer and must hand it back via
// bufpool.Put.
func (c *Conn) readFrame() (*[]byte, error) {
	n, err := c.readPrefix()
	if err != nil {
		return nil, err
	}
	fr := bufpool.Get(n)
	if err := c.readBody(*fr); err != nil {
		bufpool.Put(fr)
		return nil, err
	}
	c.countFrameIn(n)
	return fr, nil
}

// --- operation headers ---

// WriteHeader sends an operation header frame: version, op, payload.
// Headers always flush — they open a pipeline and the peer is waiting.
func (c *Conn) WriteHeader(op Op, h any) error {
	// Pre-size the encode scratch so headers with long target lists never
	// grow mid-append; the buffer itself is pooled.
	need := 2 + 24 + 2 + 8 + 2 + 16
	if wh, ok := h.(*WriteBlockHeader); ok {
		need += len(wh.Client)
		for _, t := range wh.Targets {
			need += 6 + len(t.Name) + len(t.Addr) + len(t.Rack)
		}
	}
	bp := bufpool.GetCap(need)
	defer bufpool.Put(bp)
	buf := append(*bp, Version, byte(op))
	switch op {
	case OpWriteBlock:
		wh, ok := h.(*WriteBlockHeader)
		if !ok {
			return fmt.Errorf("proto: WriteHeader(%v) needs *WriteBlockHeader, got %T", op, h)
		}
		buf = wire.AppendBlock(buf, wh.Block)
		buf = append(buf, byte(wh.Mode), wh.Depth)
		buf = wire.AppendI64(buf, wh.BlockBytes)
		buf = wire.AppendString(buf, wh.Client)
		buf = binary.BigEndian.AppendUint16(buf, uint16(len(wh.Targets)))
		for _, t := range wh.Targets {
			buf = wire.AppendDatanode(buf, t)
		}
	case OpReadBlock:
		rh, ok := h.(*ReadBlockHeader)
		if !ok {
			return fmt.Errorf("proto: WriteHeader(%v) needs *ReadBlockHeader, got %T", op, h)
		}
		buf = wire.AppendBlock(buf, rh.Block)
		buf = wire.AppendI64(buf, rh.Offset)
		buf = wire.AppendI64(buf, rh.Length)
	default:
		return fmt.Errorf("proto: unknown op %v", op)
	}
	*bp = buf
	return c.writeFrame(buf, nil, true)
}

// ReadHeader reads an operation header frame and returns the op plus the
// decoded header (*WriteBlockHeader or *ReadBlockHeader).
func (c *Conn) ReadHeader() (Op, any, error) {
	fr, err := c.readFrame()
	if err != nil {
		return 0, nil, err
	}
	defer bufpool.Put(fr)
	r := wire.NewReader(*fr)
	version, op := r.U8(), Op(r.U8())
	if err := r.Err(); err != nil {
		return 0, nil, err
	}
	if version != Version {
		return 0, nil, fmt.Errorf("proto: version %d, want %d", version, Version)
	}
	switch op {
	case OpWriteBlock:
		wh := WriteBlockHeader{
			Block:      r.Block(),
			Mode:       WriteMode(r.U8()),
			Depth:      r.U8(),
			BlockBytes: r.I64(),
			Client:     r.Str(),
		}
		if wh.BlockBytes < 0 || wh.BlockBytes > MaxBlockSize {
			return op, nil, fmt.Errorf("proto: block size hint %d outside [0, %d]", wh.BlockBytes, int64(MaxBlockSize))
		}
		wh.Targets = make([]block.DatanodeInfo, r.Bound(int(r.U16()), wire.MinDatanodeSize))
		for i := range wh.Targets {
			wh.Targets[i] = r.Datanode()
		}
		if err := r.Done(); err != nil {
			return op, nil, fmt.Errorf("proto: write-block header: %w", err)
		}
		return op, &wh, nil
	case OpReadBlock:
		rh := ReadBlockHeader{Block: r.Block(), Offset: r.I64(), Length: r.I64()}
		if err := r.Done(); err != nil {
			return op, nil, fmt.Errorf("proto: read-block header: %w", err)
		}
		return op, &rh, nil
	default:
		return op, nil, fmt.Errorf("proto: unknown op byte 0x%02x", byte(op))
	}
}

// --- packets ---

// midFrame turns the io.EOF of a stream that ended between two parts of
// one frame into io.ErrUnexpectedEOF: only an EOF before a frame's
// prefix is a clean end.
func midFrame(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// WritePacket frames and sends a data packet. Only the packet header and
// checksums pass through a (pooled) scratch buffer; p.Data rides as its
// own write vector, so the payload is never copied into a frame — one
// writev moves header, checksums, and payload together on streams with
// gather support. When both RawSums and Sums are set, RawSums wins — a
// forwarding datanode re-emits the wire bytes it received without
// re-encoding. The frame is flushed unless the Conn is corked; a Last
// packet always flushes (the peer is about to commit the block on it),
// and so does any packet whose payload is borrowed rather than staged.
func (c *Conn) WritePacket(p *Packet) error {
	sumBytes := len(p.RawSums)
	nSums := sumBytes / checksum.BytesPerChecksum
	if p.RawSums == nil {
		nSums = len(p.Sums)
		sumBytes = nSums * checksum.BytesPerChecksum
	}
	bp := bufpool.GetCap(packetHeaderSize + sumBytes)
	defer bufpool.Put(bp)
	buf := *bp
	buf = binary.BigEndian.AppendUint64(buf, uint64(p.Seqno))
	buf = binary.BigEndian.AppendUint64(buf, uint64(p.Offset))
	var flags byte
	if p.Last {
		flags |= 1
	}
	buf = append(buf, flags)
	buf = binary.BigEndian.AppendUint32(buf, uint32(nSums))
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(p.Data)))
	if p.RawSums != nil {
		buf = append(buf, p.RawSums...)
	} else {
		buf = checksum.Encode(buf, p.Sums)
	}
	*bp = buf
	return c.writeFrame(buf, p.Data, !c.corked || p.Last)
}

// Lender designates, packet by packet, the memory a received payload
// lands in. ReadPacketInto calls Lend once per packet that carries data,
// after decoding its header and before reading its payload, with the
// payload's offset in the block and its length n. A result of at least n
// bytes takes the payload (its first n bytes become Packet.Data); a
// shorter one, nil included, declines, and the payload goes to a pooled
// frame the packet owns. The memory must stay valid for as long as the
// caller uses Packet.Data — Release does not touch it.
type Lender interface {
	Lend(offset int64, n int) []byte
}

// ReadPacket is ReadPacketInto with nothing to lend: Data and RawSums
// alias one pooled frame, which Release recycles.
func (c *Conn) ReadPacket() (*Packet, error) { return c.ReadPacketInto(nil) }

// ReadPacketInto reads one data packet into a pooled Packet, scattering
// it as it decodes: the fixed header into the Packet's fields, the wire
// checksums into a small pooled frame RawSums aliases, and the payload
// into the memory to lends for this packet — a datanode's replica, a
// reader's destination — so that it is not copied again after the
// socket. The caller owns the packet and must Release it exactly once
// (see the Packet ownership contract); Release frees the frame, never
// lent memory. Checksums are not decoded or checked — verify with
// checksum.VerifyEncoded against RawSums. On an error nothing is owned
// by the caller, and lent memory may hold part of a payload.
func (c *Conn) ReadPacketInto(to Lender) (*Packet, error) {
	n, err := c.readPrefix()
	if err != nil {
		return nil, err
	}
	if n < packetHeaderSize {
		return nil, io.ErrUnexpectedEOF
	}
	hdr := c.phdr[:]
	if err := c.readBody(hdr); err != nil {
		return nil, midFrame(err)
	}
	nSums := int(binary.BigEndian.Uint32(hdr[17:]))
	nData := int(binary.BigEndian.Uint32(hdr[21:]))
	sumBytes := nSums * checksum.BytesPerChecksum
	if nSums > MaxFrame/checksum.BytesPerChecksum || nData > MaxFrame || n-packetHeaderSize != sumBytes+nData {
		return nil, fmt.Errorf("proto: packet body %d bytes, want %d sums + %d data", n-packetHeaderSize, nSums, nData)
	}
	if hdr[16]&^1 != 0 {
		return nil, fmt.Errorf("proto: unknown packet flags 0x%02x", hdr[16])
	}
	offset := int64(binary.BigEndian.Uint64(hdr[8:]))
	var lent []byte
	if to != nil && nData > 0 {
		if lent = to.Lend(offset, nData); len(lent) < nData {
			lent = nil
		}
	}
	// The frame holds what the packet owns: the checksums, and the
	// payload too unless it was lent a place.
	own := sumBytes + nData
	if lent != nil {
		own = sumBytes
	}
	fr := bufpool.Get(own)
	err = c.readBody(*fr)
	if err == nil && lent != nil {
		err = c.readBody(lent[:nData])
	}
	if err != nil {
		bufpool.Put(fr)
		return nil, midFrame(err)
	}
	c.countFrameIn(n)
	p := packetPool.Get().(*Packet)
	*p = Packet{
		Seqno:   int64(binary.BigEndian.Uint64(hdr)),
		Offset:  offset,
		Last:    hdr[16]&1 != 0,
		RawSums: (*fr)[:sumBytes],
		Data:    (*fr)[sumBytes:],
		frame:   fr,
		pooled:  true,
	}
	if lent != nil {
		p.Data = lent[:nData]
	}
	return p, nil
}

// --- acks ---

// WriteAck frames and sends a pipeline ack. Acks always flush: they are
// the latency-critical reverse traffic (per-packet acks and the FNFA)
// that corked data must never delay.
func (c *Conn) WriteAck(a *Ack) error {
	bp := bufpool.GetCap(11 + len(a.Statuses))
	defer bufpool.Put(bp)
	buf := *bp
	buf = append(buf, byte(a.Kind))
	buf = binary.BigEndian.AppendUint64(buf, uint64(a.Seqno))
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(a.Statuses)))
	for _, s := range a.Statuses {
		buf = append(buf, byte(s))
	}
	*bp = buf
	return c.writeFrame(buf, nil, true)
}

// ReadAck reads one pipeline ack. The returned *Ack is owned by the
// Conn and valid only until the next ReadAck on this Conn; callers that
// retain it (or its Statuses) must copy.
func (c *Conn) ReadAck() (*Ack, error) {
	fr, err := c.readFrame()
	if err != nil {
		return nil, err
	}
	defer bufpool.Put(fr)
	buf := *fr
	if len(buf) < 11 {
		return nil, io.ErrUnexpectedEOF
	}
	n := int(binary.BigEndian.Uint16(buf[9:]))
	if len(buf) != 11+n {
		return nil, fmt.Errorf("proto: ack body %d bytes, want %d statuses", len(buf)-11, n)
	}
	if cap(c.ackStatuses) < n {
		c.ackStatuses = make([]Status, n)
	}
	sts := c.ackStatuses[:n]
	for i := 0; i < n; i++ {
		sts[i] = Status(buf[11+i])
	}
	c.ack = Ack{
		Kind:     AckKind(buf[0]),
		Seqno:    int64(binary.BigEndian.Uint64(buf[1:])),
		Statuses: sts,
	}
	return &c.ack, nil
}
