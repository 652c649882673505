// Package wire holds the length-prefixed binary primitives every byte
// format in the repo is built from: the data-transfer headers
// (internal/proto), the control-plane messages and their RPC envelope
// (internal/nnapi, internal/rpc) and the namenode checkpoint
// (internal/namenode). There is one encoding of a string, a block, a
// datanode and a list, and it lives here.
//
// Encoding is append-style and cannot fail: integers are fixed-width
// big-endian, a float64 is its IEEE-754 bits, a string is a u16 length
// and its bytes, a list is a u32 count and its elements. Decoding goes
// through a Reader, which checks every length against the bytes that
// remain before it allocates anything and copies what it returns, so a
// decoded value never aliases the (usually pooled) input. The one
// exception to "copies" is a name (Reader.Name): the few strings that
// name datanodes, their addresses and racks decode to a string shared
// with every earlier decode of the same bytes, from one bounded table.
package wire

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"

	"repro/internal/block"
)

// longString in a string's u16 length field says the real length follows
// as a u32. Strings shorter than that keep the plain two-byte prefix, so
// the encoder has no length it must refuse (or silently truncate).
const longString = 0xFFFF

// Encoded sizes of the fixed-width parts, for sizing buffers and for
// bounding list counts by the bytes remaining.
const (
	BlockSize       = 24 // id, generation, length
	MinStringSize   = 2  // empty string: the length prefix alone
	MinDatanodeSize = 3 * MinStringSize
	minLocatedSize  = BlockSize + 4
)

// AppendBool appends one byte, 0 or 1.
func AppendBool(dst []byte, v bool) []byte {
	if v {
		return append(dst, 1)
	}
	return append(dst, 0)
}

// AppendU64 appends v as 8 big-endian bytes.
func AppendU64(dst []byte, v uint64) []byte { return binary.BigEndian.AppendUint64(dst, v) }

// AppendI64 appends v as 8 big-endian bytes (two's complement).
func AppendI64(dst []byte, v int64) []byte { return binary.BigEndian.AppendUint64(dst, uint64(v)) }

// AppendInt appends an int as an i64.
func AppendInt(dst []byte, v int) []byte { return AppendI64(dst, int64(v)) }

// AppendFloat64 appends the IEEE-754 bits of v, so a value crosses the
// wire exactly.
func AppendFloat64(dst []byte, v float64) []byte { return AppendU64(dst, math.Float64bits(v)) }

// AppendCount appends a list's element count as a u32.
func AppendCount(dst []byte, n int) []byte { return binary.BigEndian.AppendUint32(dst, uint32(n)) }

// AppendString appends a length-prefixed string.
func AppendString(dst []byte, s string) []byte {
	if len(s) < longString {
		dst = binary.BigEndian.AppendUint16(dst, uint16(len(s)))
	} else {
		dst = binary.BigEndian.AppendUint16(dst, longString)
		dst = binary.BigEndian.AppendUint32(dst, uint32(len(s)))
	}
	return append(dst, s...)
}

// AppendStrings appends a counted list of strings.
func AppendStrings(dst []byte, ss []string) []byte {
	dst = AppendCount(dst, len(ss))
	for _, s := range ss {
		dst = AppendString(dst, s)
	}
	return dst
}

// AppendBlock appends a block's id, generation stamp and length.
func AppendBlock(dst []byte, b block.Block) []byte {
	dst = AppendU64(dst, uint64(b.ID))
	dst = AppendU64(dst, uint64(b.Gen))
	return AppendI64(dst, b.NumBytes)
}

// AppendBlocks appends a counted list of blocks. The list is the one
// that gets long (a block report, a heartbeat's invalidations), so room
// for it is made once.
func AppendBlocks(dst []byte, bs []block.Block) []byte {
	dst = AppendCount(slices.Grow(dst, 4+BlockSize*len(bs)), len(bs))
	for _, b := range bs {
		dst = AppendBlock(dst, b)
	}
	return dst
}

// AppendDatanode appends a datanode's name, address and rack.
func AppendDatanode(dst []byte, d block.DatanodeInfo) []byte {
	dst = AppendString(dst, d.Name)
	dst = AppendString(dst, d.Addr)
	return AppendString(dst, d.Rack)
}

// AppendDatanodes appends a counted list of datanodes.
func AppendDatanodes(dst []byte, ds []block.DatanodeInfo) []byte {
	dst = AppendCount(dst, len(ds))
	for _, d := range ds {
		dst = AppendDatanode(dst, d)
	}
	return dst
}

// AppendLocated appends a block and its counted target list.
func AppendLocated(dst []byte, lb block.LocatedBlock) []byte {
	dst = AppendBlock(dst, lb.Block)
	return AppendDatanodes(dst, lb.Targets)
}

// AppendLocateds appends a counted list of located blocks.
func AppendLocateds(dst []byte, lbs []block.LocatedBlock) []byte {
	dst = AppendCount(dst, len(lbs))
	for _, lb := range lbs {
		dst = AppendLocated(dst, lb)
	}
	return dst
}

// Reader consumes an encoded message front to back. The first malformed
// field sticks: every later read returns a zero value and allocates
// nothing, and Done reports the error, so a decoder reads all its fields
// and checks once.
type Reader struct {
	buf []byte
	err error
}

// NewReader returns a Reader over b. It never writes to b, and nothing it
// returns aliases b except through StrView and Rest.
func NewReader(b []byte) Reader { return Reader{buf: b} }

// Len is the number of bytes not yet consumed.
func (r *Reader) Len() int { return len(r.buf) }

// Fail records err as the reader's error unless one is already set.
func (r *Reader) Fail(err error) {
	if r.err == nil {
		r.err = err
		r.buf = nil
	}
}

// Err returns the first decoding error so far.
func (r *Reader) Err() error { return r.err }

// Done returns the first decoding error, or an error if input remains:
// a message must consume its whole body.
func (r *Reader) Done() error {
	if len(r.buf) != 0 {
		r.Fail(fmt.Errorf("wire: %d trailing bytes", len(r.buf)))
	}
	return r.err
}

// take consumes n bytes, or fails with io.ErrUnexpectedEOF and returns
// nil when fewer remain.
func (r *Reader) take(n int) []byte {
	if n < 0 || n > len(r.buf) {
		r.Fail(io.ErrUnexpectedEOF)
		return nil
	}
	b := r.buf[:n]
	r.buf = r.buf[n:]
	return b
}

// U8 reads one byte.
func (r *Reader) U8() byte {
	if b := r.take(1); b != nil {
		return b[0]
	}
	return 0
}

// U16 reads a big-endian u16.
func (r *Reader) U16() uint16 {
	if b := r.take(2); b != nil {
		return binary.BigEndian.Uint16(b)
	}
	return 0
}

// U32 reads a big-endian u32.
func (r *Reader) U32() uint32 {
	if b := r.take(4); b != nil {
		return binary.BigEndian.Uint32(b)
	}
	return 0
}

// U64 reads a big-endian u64.
func (r *Reader) U64() uint64 {
	if b := r.take(8); b != nil {
		return binary.BigEndian.Uint64(b)
	}
	return 0
}

// I64 reads a big-endian i64.
func (r *Reader) I64() int64 { return int64(r.U64()) }

// Int reads an i64 as an int.
func (r *Reader) Int() int { return int(r.I64()) }

// Bool reads one byte and rejects anything but 0 and 1.
func (r *Reader) Bool() bool {
	switch v := r.U8(); v {
	case 0:
		return false
	case 1:
		return true
	default:
		r.Fail(fmt.Errorf("wire: bool byte 0x%02x", v))
		return false
	}
}

// Float64 reads IEEE-754 bits. NaN and the infinities are rejected:
// nothing in the system produces them on purpose, and they would poison
// the speed ranking they feed.
func (r *Reader) Float64() float64 {
	v := math.Float64frombits(r.U64())
	if math.IsNaN(v) || math.IsInf(v, 0) {
		r.Fail(fmt.Errorf("wire: non-finite float %v", v))
		return 0
	}
	return v
}

// Count reads a list's u32 element count and bounds it by the input.
func (r *Reader) Count(minSize int) int { return r.Bound(int(r.U32()), minSize) }

// Bound checks that n elements of at least minSize bytes each can still
// follow and returns n, so a caller may allocate by the count it gets
// back; otherwise it fails the reader and returns 0.
func (r *Reader) Bound(n, minSize int) int {
	if n < 0 || n > len(r.buf)/minSize {
		r.Fail(fmt.Errorf("wire: count %d exceeds the %d bytes remaining", n, len(r.buf)))
		return 0
	}
	return n
}

// Rest consumes and returns everything that remains. Rest and StrView
// are the two reads that alias the input, for an envelope whose caller
// parses the bytes again before the input is recycled.
func (r *Reader) Rest() []byte { return r.take(len(r.buf)) }

// StrView reads a length-prefixed string as a view into the input.
func (r *Reader) StrView() []byte {
	n := int(r.U16())
	if n == longString {
		if n = int(r.U32()); n < longString {
			r.Fail(fmt.Errorf("wire: long-string form used for %d bytes", n))
			return nil
		}
	}
	return r.take(n)
}

// Str reads a length-prefixed string (a copy of the input bytes).
func (r *Reader) Str() string { return string(r.StrView()) }

// Name reads a length-prefixed string that names a datanode, its address
// or its rack: a string the name table already holds for these bytes,
// so a name seen before costs nothing. Never use it for a client's name,
// a path or anything else whose number the cluster's size does not
// bound.
func (r *Reader) Name() string { return names.intern(r.StrView()) }

// Names reads a counted list of names; an empty list is nil.
func (r *Reader) Names() []string {
	n := r.Count(MinStringSize)
	if n == 0 {
		return nil
	}
	ss := make([]string, n)
	for i := range ss {
		ss[i] = r.Name()
	}
	return ss
}

// Block reads a block.
func (r *Reader) Block() block.Block {
	b := r.take(BlockSize)
	if b == nil {
		return block.Block{}
	}
	return block.Block{
		ID:       block.ID(binary.BigEndian.Uint64(b)),
		Gen:      block.GenStamp(binary.BigEndian.Uint64(b[8:])),
		NumBytes: int64(binary.BigEndian.Uint64(b[16:])),
	}
}

// Blocks reads a counted list of blocks; an empty list is nil.
func (r *Reader) Blocks() []block.Block {
	n := r.Count(BlockSize)
	if n == 0 {
		return nil
	}
	bs := make([]block.Block, n)
	for i := range bs {
		bs[i] = r.Block()
	}
	return bs
}

// Datanode reads a datanode; its three fields are names.
func (r *Reader) Datanode() block.DatanodeInfo {
	return block.DatanodeInfo{Name: r.Name(), Addr: r.Name(), Rack: r.Name()}
}

// Datanodes reads a counted list of datanodes; an empty list is nil.
func (r *Reader) Datanodes() []block.DatanodeInfo {
	n := r.Count(MinDatanodeSize)
	if n == 0 {
		return nil
	}
	ds := make([]block.DatanodeInfo, n)
	for i := range ds {
		ds[i] = r.Datanode()
	}
	return ds
}

// Located reads a block and its target list.
func (r *Reader) Located() block.LocatedBlock {
	return block.LocatedBlock{Block: r.Block(), Targets: r.Datanodes()}
}

// Locateds reads a counted list of located blocks; an empty list is nil.
func (r *Reader) Locateds() []block.LocatedBlock {
	n := r.Count(minLocatedSize)
	if n == 0 {
		return nil
	}
	lbs := make([]block.LocatedBlock, n)
	for i := range lbs {
		lbs[i] = r.Located()
	}
	return lbs
}
