// Package checksum implements HDFS-style chunked checksums: the payload is
// divided into fixed-size chunks (512 bytes by default) and a CRC32 is
// computed per chunk. Packets on the wire carry the chunk checksums ahead
// of the data; every datanode in a pipeline verifies them before storing
// and mirroring the packet, and every reader before delivering it.
//
// Nobody sums the same bytes twice. The client sums a block once, as it
// stages it (AppendEncoded, straight into the wire form packets carry);
// a datanode's one pass over a payload is its verification
// (VerifyEncoded, against the wire bytes as received), and what it
// verified against is what it stores and what it forwards — a store
// re-sums nothing, so a replica's checksums are the writer's own, end to
// end. Interior packets carry whole chunks, which is what lets the
// per-packet checksum runs concatenate into the block's.
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

// AppendEncoded appends data's per-chunk CRC32C checksums to dst in wire
// form — what Encode(dst, Sum(data, chunkSize)) appends, without the
// []uint32 in between — and returns the extended slice. A producer that
// keeps its checksums the way packets carry them (the client's staged
// block, a store's replica) sums into a pooled byte buffer with it and
// later hands out sub-slices as Packet.RawSums.
func AppendEncoded(dst, data []byte, chunkSize int) []byte {
	if chunkSize <= 0 {
		panic("checksum: non-positive chunk size")
	}
	for off := 0; off < len(data); off += chunkSize {
		end := off + chunkSize
		if end > len(data) {
			end = len(data)
		}
		dst = binary.BigEndian.AppendUint32(dst, crc32.Checksum(data[off:end], castagnoli))
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
