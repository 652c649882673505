// Package proto defines the data-transfer wire protocol spoken between
// clients and datanodes: operation headers (write-block, read-block),
// data packets carrying chunked checksums, and pipeline acks — including
// SMARTH's FIRST NODE FINISH ACK (FNFA), which the first datanode of a
// pipeline sends once it has received and stored an entire block.
//
// Framing is explicit and versioned: every message is a 4-byte big-endian
// length followed by the payload, so the protocol is usable over any
// stream transport (in-memory pipes, TCP).
package proto

import "repro/internal/block"

// Version is bumped on incompatible wire changes; numbers are never reused.
const Version = 4

// Default sizes match HDFS 1.x (§II of the paper): 64 MB blocks split
// into 64 KB packets, checksummed in 512 B chunks.
const (
	DefaultBlockSize  = 64 << 20
	DefaultPacketSize = 64 << 10
	DefaultChunkSize  = 512
)

// MaxBlockSize bounds a block, and with it the size hint a write-block
// header may carry: 1 GB, sixteen default blocks and the largest buffer
// bufpool keeps. A header announcing more is refused as corrupt or
// hostile before anything is allocated for it.
const MaxBlockSize = 1 << 30

// MaxFrame bounds a single wire frame; a packet of data plus checksums
// plus header fits comfortably.
const MaxFrame = 8 << 20

// Op identifies a data-transfer operation.
type Op uint8

const (
	// OpWriteBlock opens a write pipeline for one block.
	OpWriteBlock Op = 0x50
	// OpReadBlock streams a block (or a range of it) back to the client.
	OpReadBlock Op = 0x51
)

func (o Op) String() string {
	switch o {
	case OpWriteBlock:
		return "WRITE_BLOCK"
	case OpReadBlock:
		return "READ_BLOCK"
	default:
		return "UNKNOWN_OP"
	}
}

// WriteMode selects the acknowledgement discipline of a write pipeline.
type WriteMode uint8

const (
	// ModeHDFS is the baseline stop-and-wait protocol: the client waits
	// for every datanode's ack for every packet of a block before moving
	// to the next block.
	ModeHDFS WriteMode = 0
	// ModeSmarth enables the FNFA: the first datanode acknowledges the
	// whole block as soon as it is locally stored, letting the client
	// open the next pipeline immediately.
	ModeSmarth WriteMode = 1
)

func (m WriteMode) String() string {
	if m == ModeSmarth {
		return "SMARTH"
	}
	return "HDFS"
}

// Status is a per-datanode result carried inside acks.
type Status uint8

const (
	StatusSuccess Status = iota
	StatusError
	StatusErrorChecksum
)

func (s Status) String() string {
	switch s {
	case StatusSuccess:
		return "SUCCESS"
	case StatusError:
		return "ERROR"
	case StatusErrorChecksum:
		return "ERROR_CHECKSUM"
	default:
		return "UNKNOWN_STATUS"
	}
}

// WriteBlockHeader starts a write pipeline. The receiving datanode stores
// the block and mirrors every packet to Targets[0], which mirrors to
// Targets[1], and so on.
type WriteBlockHeader struct {
	Block   block.Block
	Targets []block.DatanodeInfo // downstream datanodes, excluding the receiver
	Client  string               // client name, used for buffer accounting and speed records
	Mode    WriteMode
	// Depth is the receiver's position in the pipeline: 0 for the
	// datanode the client dialed (the only one that emits the FNFA in
	// SMARTH mode), incremented at each mirror hop.
	Depth uint8
	// BlockBytes is the expected final length of the block (the writer's
	// configured block size), or 0 when unknown. It is a storage hint
	// only — receivers may use it to preallocate block buffers — and
	// never bounds how much data the pipeline actually accepts.
	BlockBytes int64
}

// ReadBlockHeader requests Length bytes of a block starting at Offset.
// Length < 0 means "to the end of the block".
type ReadBlockHeader struct {
	Block  block.Block
	Offset int64
	Length int64
}

// Packet is one unit of data transfer within a block.
//
// Ownership: a Packet returned by Conn.ReadPacket or ReadPacketInto is
// pooled — its RawSums, and its Data unless a Lender took the payload,
// alias a recycled frame buffer, and the receiver owns it until it calls
// Release (exactly once), after which every field is invalid. Data in
// lent memory belongs to whoever lent it: Release leaves it alone, and
// it stays readable exactly as long as the lender keeps it so (a
// datanode's replica until the pipeline ends, a reader's destination
// for good). Ownership moves with the pointer: a datanode that enqueues
// a packet for its mirror transfers the release duty to the forwarder.
// Locally constructed packets (the send path) are plain values; Release
// on them is a no-op and WritePacket never retains any field.
type Packet struct {
	Seqno  int64 // sequence number within the block, starting at 0
	Offset int64 // offset of Data within the block
	Last   bool  // true on the final (possibly empty) packet of the block
	// Sums holds decoded per-chunk checksums on the send path. ReadPacket
	// leaves it nil and fills RawSums instead.
	Sums []uint32
	// RawSums is the big-endian wire encoding of the checksums. On
	// received packets it aliases the pooled frame; verify against it
	// with checksum.VerifyEncoded. WritePacket prefers RawSums over Sums
	// when both are set, so forwarding never re-encodes.
	RawSums []byte
	Data    []byte

	// frame is the pooled buffer RawSums (and Data, unless lent a place)
	// alias; pooled marks a packet struct that came from the packet pool.
	frame  *[]byte
	pooled bool
}

// Release returns a received packet and the frame it owns to the pools —
// not memory a Lender gave its payload. It must be called exactly once
// per received packet, after which the packet and its Data/RawSums must
// not be touched. Safe no-op on locally constructed packets.
func (p *Packet) Release() {
	fr, pooled := p.frame, p.pooled
	if fr == nil && !pooled {
		return
	}
	*p = Packet{}
	releaseFrame(fr)
	if pooled {
		packetPool.Put(p)
	}
}

// AckKind discriminates pipeline acks.
type AckKind uint8

const (
	// AckData acknowledges one packet. Statuses holds one entry per
	// pipeline datanode, closest-first.
	AckData AckKind = iota
	// AckFNFA is SMARTH's FIRST NODE FINISH ACK: the first datanode has
	// received and locally stored every packet of the block.
	AckFNFA
	// AckHeader acknowledges pipeline setup (success or failure of
	// connecting the downstream mirrors).
	AckHeader
)

func (k AckKind) String() string {
	switch k {
	case AckData:
		return "DATA"
	case AckFNFA:
		return "FNFA"
	case AckHeader:
		return "HEADER"
	default:
		return "UNKNOWN_ACK"
	}
}

// Ack travels the pipeline in reverse, from the last datanode back to the
// client. Each datanode prepends its own status.
//
// Ownership: the *Ack returned by Conn.ReadAck is owned by the Conn and
// valid only until the next ReadAck on that Conn (acks are per-packet
// hot-path traffic; reusing one struct keeps the receive path
// allocation-free). Callers that need an ack beyond that must copy it,
// including the Statuses slice.
type Ack struct {
	Kind     AckKind
	Seqno    int64    // for AckData: the packet acknowledged
	Statuses []Status // closest datanode first
}

// OK reports whether every status in the ack is StatusSuccess.
func (a Ack) OK() bool {
	for _, s := range a.Statuses {
		if s != StatusSuccess {
			return false
		}
	}
	return true
}

// Blame is the pipeline position (closest datanode = 0) a failed
// pipeline is blamed on: the first non-success status, else 0.
func Blame(statuses []Status) int {
	for i, s := range statuses {
		if s != StatusSuccess {
			return i
		}
	}
	return 0
}
