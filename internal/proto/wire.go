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
// buffers in one gather call (writev on the TCP substrate). A frame with
// a borrowed payload goes out through it when the stream has it; streams
// without it get sequential writes, which is behaviorally identical.
type buffersWriter interface {
	WriteBuffers(*net.Buffers) (int64, error)
}

const (
	// borrowMin is the smallest frame tail sent as its own write vector,
	// straight from the caller's buffer (zero-copy). Smaller tails are
	// copied in behind the frame head, so the frame leaves as one Write.
	borrowMin = 4 << 10

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

// Conn wraps a stream with buffered, frame-oriented message I/O. It is
// safe for one concurrent reader and one concurrent writer, which matches
// pipeline usage (packets flow one way, acks the other on a second Conn).
// Every frame is on the stream before the call that framed it returns.
type Conn struct {
	r   *bufio.Reader
	raw io.ReadWriter // underlying stream: scatter body reads, frame writes
	bw  buffersWriter // non-nil when raw supports gather writes
	c   io.Closer
	d   deadlineSetter

	// wbuf holds the frame being written — length prefix, head, and any
	// tail under borrowMin — and is reused across frames. vecs and
	// gather hand a frame with a borrowed tail to WriteBuffers. All
	// three belong to the writing side.
	wbuf   []byte
	vecs   [2][]byte
	gather net.Buffers

	// rhdr is length-prefix scratch and phdr is ReadPacketInto's
	// packet-header scratch — fields rather than locals so they don't
	// escape per frame.
	rhdr [4]byte
	phdr [packetHeaderSize]byte

	// ack and ackStatuses back the *Ack returned by ReadAck, so the
	// per-packet ack stream decodes without allocating. Owned by the
	// reading side, like r.
	ack         Ack
	ackStatuses []Status

	// metrics, when set, receives frame-level counters (bytes and frames
	// each way). All increments are atomic and allocation-free, so
	// metrics may stay attached on the hot path; one ConnMetrics may be
	// shared by many conns to aggregate per component.
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
// supports gather writes (WriteBuffers), a frame with a borrowed payload
// goes out as one writev.
func NewConn(rw io.ReadWriter) *Conn {
	c, _ := rw.(io.Closer)
	d, _ := rw.(deadlineSetter)
	bw, _ := rw.(buffersWriter)
	return &Conn{
		r:   bufio.NewReaderSize(rw, readBufSize),
		raw: rw,
		bw:  bw,
		c:   c,
		d:   d,
	}
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

// beginFrame starts a frame in the conn's write buffer: it returns the
// buffer holding the (not yet filled) length prefix, with room for a head
// of head bytes and, when it will be copied in, a tail of tail bytes.
func (c *Conn) beginFrame(head, tail int) []byte {
	n := 4 + head
	if tail < borrowMin {
		n += tail
	}
	if cap(c.wbuf) < n {
		c.wbuf = make([]byte, 0, n)
	}
	return c.wbuf[:4]
}

// writeFrame sends one length-prefixed frame: buf is a frame begun by
// beginFrame with its head appended, and tail is the rest of the payload.
// A tail under borrowMin is copied in behind the head and the frame
// leaves as one Write; a longer one is borrowed, never copied, and the
// frame leaves as one two-vector gather write (two Writes on a stream
// without WriteBuffers). Nothing is retained: the caller owns tail again
// when writeFrame returns.
func (c *Conn) writeFrame(buf, tail []byte) error {
	n := len(buf) - 4 + len(tail)
	if n > MaxFrame {
		return fmt.Errorf("proto: frame of %d bytes exceeds max %d", n, MaxFrame)
	}
	binary.BigEndian.PutUint32(buf, uint32(n))
	if len(tail) < borrowMin {
		buf, tail = append(buf, tail...), nil
	}
	c.wbuf = buf[:0]
	if m := c.metrics; m != nil {
		m.FramesOut.Inc()
		m.BytesOut.Add(int64(4 + n))
	}
	c.armWrite()
	var err error
	switch {
	case tail == nil:
		_, err = c.raw.Write(buf)
	case c.bw != nil:
		// WriteBuffers advances the header it is handed; the payload
		// reference is dropped once the write is done.
		c.vecs = [2][]byte{buf, tail}
		c.gather = c.vecs[:]
		_, err = c.bw.WriteBuffers(&c.gather)
		c.vecs, c.gather = [2][]byte{}, nil
	default:
		if _, err = c.raw.Write(buf); err == nil {
			_, err = c.raw.Write(tail)
		}
	}
	return err
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
func (c *Conn) WriteHeader(op Op, h any) error {
	// Pre-size the frame so headers with long target lists never grow
	// mid-append.
	need := 2 + 24 + 2 + 8 + 2 + 16
	if wh, ok := h.(*WriteBlockHeader); ok {
		need += len(wh.Client)
		for _, t := range wh.Targets {
			need += 6 + len(t.Name) + len(t.Addr) + len(t.Rack)
		}
	}
	buf := append(c.beginFrame(need, 0), Version, byte(op))
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
	return c.writeFrame(buf, nil)
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

// WritePacket frames and sends a data packet. The packet header and
// checksums are encoded straight into the conn's frame buffer; a payload
// of borrowMin or more rides as its own write vector, never copied into
// the frame — one writev moves header, checksums, and payload together
// on streams with gather support — and a smaller one is copied in behind
// the checksums. When both RawSums and Sums are set, RawSums wins — a
// forwarding datanode re-emits the wire bytes it received without
// re-encoding.
func (c *Conn) WritePacket(p *Packet) error {
	sumBytes := len(p.RawSums)
	nSums := sumBytes / checksum.BytesPerChecksum
	if p.RawSums == nil {
		nSums = len(p.Sums)
		sumBytes = nSums * checksum.BytesPerChecksum
	}
	buf := c.beginFrame(packetHeaderSize+sumBytes, len(p.Data))
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
	return c.writeFrame(buf, p.Data)
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

// WriteAck frames and sends a pipeline ack.
func (c *Conn) WriteAck(a *Ack) error {
	buf := append(c.beginFrame(11+len(a.Statuses), 0), byte(a.Kind))
	buf = binary.BigEndian.AppendUint64(buf, uint64(a.Seqno))
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(a.Statuses)))
	for _, s := range a.Statuses {
		buf = append(buf, byte(s))
	}
	return c.writeFrame(buf, nil)
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
