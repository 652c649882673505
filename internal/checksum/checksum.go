// Package checksum implements HDFS-style chunked checksums: the payload is
// divided into fixed-size chunks (512 bytes by default) and a CRC32 is
// computed per chunk. Packets on the wire carry the chunk checksums ahead
// of the data; every datanode in a pipeline re-verifies them before
// storing and mirroring the packet.
package checksum

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
)

// DefaultChunkSize is HDFS's io.bytes.per.checksum default.
const DefaultChunkSize = 512

// BytesPerChecksum is the encoded size of one chunk CRC.
const BytesPerChecksum = 4

// castagnoli matches HDFS's CRC32C checksum type.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrMismatch is returned (wrapped) when verification fails.
type ErrMismatch struct {
	Chunk int    // chunk index within the buffer
	Want  uint32 // checksum carried on the wire
	Got   uint32 // checksum of the received data
}

func (e *ErrMismatch) Error() string {
	return fmt.Sprintf("checksum: chunk %d mismatch: got %08x want %08x", e.Chunk, e.Got, e.Want)
}

// NumChunks returns how many chunks a payload of n bytes occupies with the
// given chunk size. The final chunk may be short.
func NumChunks(n, chunkSize int) int {
	if chunkSize <= 0 {
		panic("checksum: non-positive chunk size")
	}
	if n <= 0 {
		return 0
	}
	return (n + chunkSize - 1) / chunkSize
}

// Sum computes per-chunk CRC32C checksums of data.
func Sum(data []byte, chunkSize int) []uint32 {
	return AppendSums(make([]uint32, 0, NumChunks(len(data), chunkSize)), data, chunkSize)
}

// AppendSums appends data's per-chunk CRC32C checksums to dst and
// returns the extended slice. Callers on the hot path pass a reusable
// scratch slice (dst[:0]) so a steady-state packet stream computes its
// checksums without allocating.
func AppendSums(dst []uint32, data []byte, chunkSize int) []uint32 {
	if chunkSize <= 0 {
		panic("checksum: non-positive chunk size")
	}
	for off := 0; off < len(data); off += chunkSize {
		end := off + chunkSize
		if end > len(data) {
			end = len(data)
		}
		dst = append(dst, crc32.Checksum(data[off:end], castagnoli))
	}
	return dst
}

// Verify checks data against per-chunk checksums. The number of checksums
// must match NumChunks(len(data)).
func Verify(data []byte, sums []uint32, chunkSize int) error {
	want := NumChunks(len(data), chunkSize)
	if len(sums) != want {
		return fmt.Errorf("checksum: have %d checksums for %d chunks", len(sums), want)
	}
	for i, off := 0, 0; off < len(data); i, off = i+1, off+chunkSize {
		end := off + chunkSize
		if end > len(data) {
			end = len(data)
		}
		got := crc32.Checksum(data[off:end], castagnoli)
		if got != sums[i] {
			return &ErrMismatch{Chunk: i, Want: sums[i], Got: got}
		}
	}
	return nil
}

// VerifyEncoded checks data directly against big-endian wire-encoded
// checksums (the sums region of a packet frame), so a pipeline hop can
// verify a packet without first decoding the checksums into a []uint32.
// len(raw) must be exactly NumChunks(len(data)) * BytesPerChecksum.
func VerifyEncoded(data, raw []byte, chunkSize int) error {
	if len(raw)%BytesPerChecksum != 0 {
		return fmt.Errorf("checksum: encoded length %d not a multiple of %d", len(raw), BytesPerChecksum)
	}
	want := NumChunks(len(data), chunkSize)
	if len(raw)/BytesPerChecksum != want {
		return fmt.Errorf("checksum: have %d checksums for %d chunks", len(raw)/BytesPerChecksum, want)
	}
	for i, off := 0, 0; off < len(data); i, off = i+1, off+chunkSize {
		end := off + chunkSize
		if end > len(data) {
			end = len(data)
		}
		got := crc32.Checksum(data[off:end], castagnoli)
		if w := binary.BigEndian.Uint32(raw[i*BytesPerChecksum:]); got != w {
			return &ErrMismatch{Chunk: i, Want: w, Got: got}
		}
	}
	return nil
}

// Encode serializes checksums big-endian, appending to dst.
func Encode(dst []byte, sums []uint32) []byte {
	for _, s := range sums {
		dst = binary.BigEndian.AppendUint32(dst, s)
	}
	return dst
}

// Decode parses big-endian checksums from raw. len(raw) must be a multiple
// of BytesPerChecksum.
func Decode(raw []byte) ([]uint32, error) {
	if len(raw)%BytesPerChecksum != 0 {
		return nil, fmt.Errorf("checksum: encoded length %d not a multiple of %d", len(raw), BytesPerChecksum)
	}
	sums := make([]uint32, len(raw)/BytesPerChecksum)
	for i := range sums {
		sums[i] = binary.BigEndian.Uint32(raw[i*BytesPerChecksum:])
	}
	return sums, nil
}

// Chunked computes checksums incrementally as data is appended, so a
// client can checksum a stream without buffering it twice. The zero value
// is not usable; construct with NewChunked.
type Chunked struct {
	chunkSize int
	partial   []byte // the stream's tail past the last whole chunk, < chunkSize bytes
	sums      []uint32
	total     int64
}

// NewChunked returns an incremental checksummer.
func NewChunked(chunkSize int) *Chunked {
	if chunkSize <= 0 {
		chunkSize = DefaultChunkSize
	}
	return &Chunked{chunkSize: chunkSize}
}

// maxGrowBytes caps what Grow reserves for: the size is a hint that may
// come off the wire, and 1 GB of payload is already 8 MB of checksums.
const maxGrowBytes = 1 << 30

// Grow reserves room for the checksums of n more bytes, so a writer that
// knows the stream's length sizes the slice once.
func (c *Chunked) Grow(n int64) {
	if n <= 0 {
		return
	}
	need := len(c.sums) + NumChunks(int(min(n, maxGrowBytes)), c.chunkSize)
	if need > cap(c.sums) {
		c.sums = append(make([]uint32, 0, need), c.sums...)
	}
}

// Write feeds more data. It never fails; it implements io.Writer so it can
// sit inside an io.MultiWriter. Whole chunks are checksummed where they
// lie in p; only a tail shorter than a chunk is copied, to be completed
// by the next Write.
func (c *Chunked) Write(p []byte) (int, error) {
	n := len(p)
	c.total += int64(n)
	if len(c.partial) > 0 {
		need := c.chunkSize - len(c.partial)
		if need > len(p) {
			c.partial = append(c.partial, p...)
			return n, nil
		}
		c.partial = append(c.partial, p[:need]...)
		c.sums = append(c.sums, crc32.Checksum(c.partial, castagnoli))
		c.partial = c.partial[:0]
		p = p[need:]
	}
	whole := len(p) - len(p)%c.chunkSize
	c.sums = AppendSums(c.sums, p[:whole], c.chunkSize)
	c.partial = append(c.partial, p[whole:]...)
	return n, nil
}

// Sums flushes any partial final chunk and returns all chunk checksums.
// After Sums the checksummer is reset for reuse.
func (c *Chunked) Sums() []uint32 {
	if len(c.partial) > 0 {
		c.sums = append(c.sums, crc32.Checksum(c.partial, castagnoli))
		c.partial = c.partial[:0]
	}
	out := c.sums
	c.sums = nil
	c.total = 0
	return out
}

// Total returns bytes written since construction or the last Sums call.
func (c *Chunked) Total() int64 { return c.total }
