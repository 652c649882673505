// Package bufpool is the one free-list of byte buffers on the data path:
// packet frames (internal/proto), RPC frames (internal/rpc),
// the in-memory transport's rings (internal/transport), MemStore replica
// buffers (internal/storage) and the client's block staging buffers
// (internal/client). Pooling them removes the per-message and — because
// SMARTH opens a new pipeline for every block — the per-pipeline
// allocation that otherwise dominates the write path.
//
// Buffers are kept in power-of-two size classes, one sync.Pool per
// class: Get(n) draws from class ⌈log₂ n⌉, so any buffer found there
// has capacity for n, and a 1 MB replica buffer is never handed out for
// an 11-byte ack. There is no capacity knob: sync.Pool drops idle
// buffers across garbage collections, and that is the bound.
//
// Buffers are handed out as *[]byte so the pointer itself can be pooled
// without allocating on Put (a plain []byte stored in a sync.Pool would
// escape to an interface allocation on every Put).
//
// Ownership invariants: Get returns a buffer owned exclusively by the
// caller until it calls Put — once, with the same pointer, after which
// the buffer (and anything aliasing it, such as a proto.Packet's Data
// and RawSums) must not be touched; the pool will hand it to another
// goroutine and overwrite it. Ownership transfers with the pointer,
// so whichever function or struct ends up holding a pooled buffer
// carries the Put duty (proto.Packet.Release is such a transferred Put;
// a transport ring, a MemStore replica and a client staging block hold
// theirs in a field). An owner that cannot prove it is the last one
// touching the bytes drops the buffer for the garbage collector instead
// of calling Put. Get and Put are safe for concurrent use from any
// goroutine; a buffer itself is not synchronized — it belongs to
// exactly one owner at a time.
package bufpool

import (
	"math/bits"
	"sync"
)

const (
	// minShift is the smallest class (1 KB): acks and small RPC frames
	// share it rather than spreading over ten tiny classes.
	minShift = 10
	// maxShift is the largest class (1 GB). Larger requests are
	// allocated directly.
	maxShift = 30
)

// classes[i] holds buffers with capacity at least 1<<(minShift+i).
var classes [maxShift - minShift + 1]sync.Pool

// Get returns a pooled buffer with len n (contents undefined). The
// buffer is returned with Put at most once, after which the caller must
// not touch it again; an owner unsure it is the last user drops it for
// the garbage collector instead.
func Get(n int) *[]byte {
	// ⌈log₂ n⌉ - minShift, and 0 for every n up to the smallest class.
	class := uint(bits.Len(uint(max(n, 1)-1) >> minShift))
	if class >= uint(len(classes)) { // larger than the largest class: not pooled
		b := make([]byte, n)
		return &b
	}
	if bp, ok := classes[class].Get().(*[]byte); ok {
		*bp = (*bp)[:n]
		return bp
	}
	b := make([]byte, n, 1<<(minShift+class))
	return &b
}

// GetCap returns a pooled buffer with len 0 and cap at least n, for
// append-style encoding. Return it with Put.
func GetCap(n int) *[]byte {
	bp := Get(n)
	*bp = (*bp)[:0]
	return bp
}

// Put recycles a buffer obtained from Get or GetCap. The slice header
// may have been re-assigned by appends; the current backing array is
// what gets pooled, in the largest class its capacity fills. nil is
// ignored.
func Put(bp *[]byte) {
	if bp == nil {
		return
	}
	// ⌊log₂ cap⌋ - minShift; out of range below the smallest class (the
	// subtraction wraps) and from twice the largest up: dropped.
	class := uint(bits.Len(uint(cap(*bp))>>minShift)) - 1
	if class >= uint(len(classes)) {
		return
	}
	*bp = (*bp)[:0]
	classes[class].Put(bp)
}
