package transport

import (
	"errors"
	"io"
	"sync"
	"time"

	"repro/internal/bufpool"
	"repro/internal/clock"
)

// ErrClosed is returned by operations on a closed connection.
var ErrClosed = errors.New("transport: connection closed")

// ErrTimeout is returned when a read or write deadline expires. It
// implements the net.Error Timeout contract so callers can treat memory
// and TCP substrates uniformly (see IsTimeout).
var ErrTimeout error = &timeoutError{}

type timeoutError struct{}

func (*timeoutError) Error() string   { return "transport: i/o timeout" }
func (*timeoutError) Timeout() bool   { return true }
func (*timeoutError) Temporary() bool { return true }

// pipeBuf is one direction of an in-memory connection: a bounded FIFO of
// bytes with blocking reads and writes, modelling a TCP socket buffer.
// Read and write deadlines are supported; the clock driving them is the
// network's, so deadlines work under a virtual clock too.
//
// The FIFO is a ring: the storage is taken from bufpool on the first
// write and bytes wrap around it, so a connection streams any amount of
// data through one buffer, and a direction that never carries data
// holds none. The first write takes the smallest pooled buffer that
// holds it, so an ack direction carries its few bytes in a small ring;
// the first write that does not fit moves the unread bytes into a
// full-capacity ring, once (grow). CloseRead — after which no operation
// touches the storage again — returns it to the pool under mu, so the
// next connection reuses it: SMARTH opens a pipeline per block, and
// its rings would otherwise be bought anew each time.
type pipeBuf struct {
	mu       sync.Mutex
	notEmpty *sync.Cond
	notFull  *sync.Cond
	clk      clock.Clock
	ring     *[]byte // pooled ring storage, len <= capacity; nil before the first write and after release
	r        int     // index of the first unread byte
	n        int     // unread byte count
	capacity int     // unread bytes at which writers block
	closed   bool    // write side closed cleanly; drained reads return io.EOF
	rclosed  bool    // read side closed locally; reads and peer writes fail

	rDeadline time.Time
	wDeadline time.Time
	// rWaker/wWaker report whether a waker goroutine is alive for that
	// direction; wakers exist only while an op actually blocks under an
	// armed deadline, so the happy path spawns nothing.
	rWaker bool
	wWaker bool
	// done closes on the first CloseWrite or CloseRead, after which
	// no operation blocks on the buffer again: a sleeping waker exits at
	// once and stops its timer, which would otherwise stay pending until
	// the deadline.
	done chan struct{}
}

func newPipeBuf(capacity int, clk clock.Clock) *pipeBuf {
	if capacity <= 0 {
		capacity = 256 << 10
	}
	if clk == nil {
		clk = clock.System
	}
	p := &pipeBuf{capacity: capacity, clk: clk, done: make(chan struct{})}
	p.notEmpty = sync.NewCond(&p.mu)
	p.notFull = sync.NewCond(&p.mu)
	return p
}

// SetReadDeadline bounds blocked and future reads; the zero time removes
// the deadline.
func (b *pipeBuf) SetReadDeadline(t time.Time) {
	b.mu.Lock()
	b.rDeadline = t
	b.notEmpty.Broadcast() // blocked readers re-evaluate (and re-arm wakers)
	b.mu.Unlock()
}

// SetWriteDeadline bounds blocked and future writes; the zero time
// removes the deadline.
func (b *pipeBuf) SetWriteDeadline(t time.Time) {
	b.mu.Lock()
	b.wDeadline = t
	b.notFull.Broadcast()
	b.mu.Unlock()
}

// waker sleeps until *deadline and wakes cond's waiters. It re-sleeps
// if the deadline moved; once no deadline is armed or the stream ended,
// it wakes them too and exits. Runs while *running is true; must be
// started with it set. (deadline, running, cond) are the read or the
// write triple.
func (b *pipeBuf) waker(deadline *time.Time, running *bool, cond *sync.Cond) {
	for {
		b.mu.Lock()
		d, now := *deadline, b.clk.Now()
		if d.IsZero() || b.closed || b.rclosed || !now.Before(d) {
			*running = false
			cond.Broadcast()
			b.mu.Unlock()
			return
		}
		b.mu.Unlock()
		t := clock.NewTimer(b.clk, d.Sub(now))
		select {
		case <-t.C:
		case <-b.done:
		}
		t.Stop()
	}
}

// end marks the stream over for the wakers and wakes every blocked
// operation so it observes the state the caller just set. Caller holds mu.
func (b *pipeBuf) end() {
	select {
	case <-b.done:
	default:
		close(b.done)
	}
	b.notEmpty.Broadcast()
	b.notFull.Broadcast()
}

// Write appends p, blocking while the buffer is full.
func (b *pipeBuf) Write(p []byte) (int, error) {
	written := 0
	b.mu.Lock()
	defer b.mu.Unlock()
	for written < len(p) {
		if b.rclosed {
			// The reading side closed its connection: further writes are
			// lost, so fail them (the TCP RST analogue).
			return written, ErrClosed
		}
		if b.closed {
			return written, io.ErrClosedPipe
		}
		space := b.capacity - b.n
		if space == 0 {
			if !b.wDeadline.IsZero() {
				if !b.clk.Now().Before(b.wDeadline) {
					return written, ErrTimeout
				}
				if !b.wWaker {
					b.wWaker = true
					go b.waker(&b.wDeadline, &b.wWaker, b.notFull)
				}
			}
			b.notFull.Wait()
			continue
		}
		n := min(len(p)-written, space)
		if b.ring == nil || b.n+n > len(*b.ring) {
			b.grow(n)
		}
		buf := *b.ring
		// Copy into the ring, wrapping at the end of the storage.
		w := b.r + b.n
		if w >= len(buf) {
			w -= len(buf)
		}
		c := copy(buf[w:], p[written:written+n])
		if c < n {
			copy(buf, p[written+c:written+n])
		}
		b.n += n
		written += n
		b.notEmpty.Broadcast()
	}
	return written, nil
}

// grow makes room in the ring for n more bytes, n <= capacity - b.n: a
// first write takes the smallest pooled buffer that holds n, and a later
// one moves the unread bytes, wrapped or not, to the front of a
// full-capacity ring and returns the small one. Caller holds mu.
func (b *pipeBuf) grow(n int) {
	size := b.capacity
	if b.ring == nil {
		size = n
	}
	ring := bufpool.Get(size)
	*ring = (*ring)[:min(cap(*ring), b.capacity)]
	if b.ring != nil {
		old := *b.ring
		c := copy(*ring, old[b.r:min(b.r+b.n, len(old))])
		copy((*ring)[c:b.n], old)
		bufpool.Put(b.ring)
		b.r = 0
	}
	b.ring = ring
}

// Read takes bytes, blocking while the buffer is empty.
func (b *pipeBuf) Read(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for {
		if b.rclosed {
			return 0, ErrClosed
		}
		if b.n > 0 {
			n := len(p)
			if n > b.n {
				n = b.n
			}
			// Copy out of the ring, wrapping at the end of the storage.
			buf := *b.ring
			c := copy(p[:n], buf[b.r:min(b.r+n, len(buf))])
			if c < n {
				copy(p[c:n], buf)
			}
			b.r += n
			if b.r >= len(buf) {
				b.r -= len(buf)
			}
			b.n -= n
			b.notFull.Broadcast()
			return n, nil
		}
		if b.closed {
			return 0, io.EOF
		}
		if !b.rDeadline.IsZero() {
			// Deliver available data even past the deadline; time out
			// only when the read would block.
			if !b.clk.Now().Before(b.rDeadline) {
				return 0, ErrTimeout
			}
			if !b.rWaker {
				b.rWaker = true
				go b.waker(&b.rDeadline, &b.rWaker, b.notEmpty)
			}
		}
		b.notEmpty.Wait()
	}
}

// releaseRing discards unread bytes and returns the ring to the pool.
// Caller holds mu and has set rclosed, so every later Read and Write
// fails before touching the storage.
func (b *pipeBuf) releaseRing() {
	bufpool.Put(b.ring)
	b.ring, b.r, b.n = nil, 0, 0
}

// CloseWrite ends the stream cleanly: pending data remains readable, then
// readers get io.EOF.
func (b *pipeBuf) CloseWrite() {
	b.mu.Lock()
	b.closed = true
	b.end()
	b.mu.Unlock()
}

// CloseRead abandons the stream from the reading side: blocked and
// future reads fail locally, and the peer's writes fail rather than
// backing up into a buffer nobody will drain.
func (b *pipeBuf) CloseRead() {
	b.mu.Lock()
	b.rclosed = true
	b.releaseRing()
	b.end()
	b.mu.Unlock()
}
