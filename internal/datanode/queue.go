package datanode

import (
	"sync"

	"repro/internal/obs"
	"repro/internal/proto"
)

// packetQueue is the bounded store-and-forward buffer between a
// pipeline's receiver and its downstream forwarder, accounted in bytes.
// Its capacity is one block (§IV-C: "its buffer is set to be 64 MB, i.e.,
// the default size of block, for each client"), which is what lets a
// SMARTH first datanode absorb an entire block at client speed while the
// mirror drains at downstream speed.
type packetQueue struct {
	mu       sync.Mutex
	notEmpty *sync.Cond
	notFull  *sync.Cond
	items    []*proto.Packet
	bytes    int64
	capacity int64
	closed   bool
	broken   bool
	// depth, when non-nil, samples the queued byte count after each
	// push — the store-and-forward backlog a slow mirror builds up.
	depth *obs.Histogram
}

// forwardBuffer is each pipeline's store-and-forward budget in bytes:
// one block, per §IV-C.
const forwardBuffer = proto.DefaultBlockSize

func newPacketQueue(capacity int64) *packetQueue {
	if capacity <= 0 {
		capacity = forwardBuffer
	}
	q := &packetQueue{capacity: capacity}
	q.notEmpty = sync.NewCond(&q.mu)
	q.notFull = sync.NewCond(&q.mu)
	return q
}

// push enqueues p, blocking while the queue is over capacity. It returns
// false if the queue was broken.
func (q *packetQueue) push(p *proto.Packet) bool {
	size := int64(len(p.Data))
	q.mu.Lock()
	defer q.mu.Unlock()
	for !q.broken && !q.closed && q.bytes > 0 && q.bytes+size > q.capacity {
		q.notFull.Wait()
	}
	if q.broken || q.closed {
		return false
	}
	q.items = append(q.items, p)
	q.bytes += size
	q.depth.Observe(q.bytes)
	q.notEmpty.Signal()
	return true
}

// pop dequeues the next packet; ok=false means the queue is drained and
// closed, or broken.
func (q *packetQueue) pop() (*proto.Packet, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for {
		if q.broken {
			return nil, false
		}
		if len(q.items) > 0 {
			p := q.items[0]
			q.items = q.items[1:]
			q.bytes -= int64(len(p.Data))
			q.notFull.Broadcast()
			return p, true
		}
		if q.closed {
			return nil, false
		}
		q.notEmpty.Wait()
	}
}

// close marks the end of input; queued packets remain poppable.
func (q *packetQueue) close() {
	q.mu.Lock()
	q.closed = true
	q.notEmpty.Broadcast()
	q.notFull.Broadcast()
	q.mu.Unlock()
}

// isBroken reports whether breakNow has run.
func (q *packetQueue) isBroken() bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.broken
}

// breakNow discards everything and unblocks all waiters. Queued packets
// are pooled (ownership passed to the queue on push), so they are
// released here rather than dropped.
func (q *packetQueue) breakNow() {
	q.mu.Lock()
	q.broken = true
	items := q.items
	q.items = nil
	q.notEmpty.Broadcast()
	q.notFull.Broadcast()
	q.mu.Unlock()
	for _, p := range items {
		p.Release()
	}
}
