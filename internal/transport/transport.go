// Package transport abstracts the byte streams the data-transfer protocol
// runs over. Two implementations are provided: an in-memory network with
// per-link bandwidth shaping and fault injection (the default substrate
// for tests), and a TCP network for running a cluster across real
// sockets. The in-memory network's links may be paced by a LinkPolicy,
// the software analogue of the paper's `tc` bandwidth throttling; TCP
// links are never shaped.
//
// Concurrency invariants: a Network (dial, listen, shaping) is safe for
// concurrent use from any goroutine. A Conn follows
// the net.Conn discipline the protocol layer depends on: at most one
// goroutine in Read and one in Write at a time (the two directions are
// independent), and Close may be called from any goroutine — including
// concurrently with a blocked Read/Write, which it unblocks with an
// error. Deadlines set via SetReadDeadline/SetWriteDeadline apply per
// direction and may likewise be set from a watchdog goroutine. The
// in-memory pipe allocates its ring buffer once per direction at
// connection time and never re-allocates, which the hot path's
// zero-allocation budget (DESIGN.md §7) counts on.
package transport

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"repro/internal/clock"
)

// Conn is a bidirectional byte stream between two named endpoints.
type Conn interface {
	io.ReadWriteCloser
	// LocalAddr and RemoteAddr return the endpoint names used at Dial
	// time (for the accepted side, the dialer's claimed identity).
	LocalAddr() string
	RemoteAddr() string
	// SetReadDeadline and SetWriteDeadline bound blocked and future I/O
	// on the conn, matching net.Conn semantics: the zero time clears the
	// deadline, and expiry fails the operation with an error for which
	// IsTimeout reports true.
	SetReadDeadline(t time.Time) error
	SetWriteDeadline(t time.Time) error
}

// IsTimeout reports whether err (or an error it wraps) is a deadline
// expiry, covering both the in-memory ErrTimeout and net.Error timeouts
// from the TCP substrate.
func IsTimeout(err error) bool {
	var te interface{ Timeout() bool }
	return errors.As(err, &te) && te.Timeout()
}

// Listener accepts inbound connections for one address.
type Listener interface {
	Accept() (Conn, error)
	Close() error
	Addr() string
}

// Network creates listeners and outbound connections. Dial carries the
// caller's own address, which names the conn's local end and, on the
// in-memory network, picks the link's pacer.
type Network interface {
	Listen(addr string) (Listener, error)
	Dial(local, remote string) (Conn, error)
}

// LinkPolicy shapes the in-memory network's links. Pacer returns the
// pacing function of the directed link src→dst, or nil when the link is
// unshaped. A conn calls it with the size of each chunk it writes (at
// most maxPaceChunk bytes) before the chunk enters the ring; it blocks
// until the link admits those bytes.
type LinkPolicy interface {
	Pacer(src, dst string) func(n int)
}

// maxPaceChunk is the largest write a shaped link paces at once.
const maxPaceChunk = 64 << 10

// ---------------------------------------------------------------------
// In-memory network
// ---------------------------------------------------------------------

// MemNetwork is an in-process Network. Connections are pairs of bounded
// pipes paced by the LinkPolicy. It injects no faults of its own: a
// crash is the component closing its listener and connections
// (datanode.Datanode.Stop), as on TCP, and a wedged or slow link is a
// wrapper's (internal/faultnet).
type MemNetwork struct {
	mu        sync.Mutex
	policy    LinkPolicy
	clk       clock.Clock
	listeners map[string]*memListener
}

// memBufSize is the capacity of each direction's ring.
const memBufSize = 256 << 10

// NewMemNetwork returns an in-memory network shaped by policy (nil means
// unshaped).
func NewMemNetwork(policy LinkPolicy) *MemNetwork {
	return &MemNetwork{
		policy:    policy,
		clk:       clock.System,
		listeners: make(map[string]*memListener),
	}
}

// SetClock replaces the clock driving conn deadlines (affects
// connections made afterwards). Pass a virtual clock to make deadlines
// deterministic in simulated time.
func (n *MemNetwork) SetClock(clk clock.Clock) {
	if clk == nil {
		clk = clock.System
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	n.clk = clk
}

type memListener struct {
	net    *MemNetwork
	addr   string
	accept chan *memConn // conns dialed but not yet accepted
	done   chan struct{}

	mu     sync.Mutex
	closed bool
}

func (l *memListener) Accept() (Conn, error) {
	select {
	case c, ok := <-l.accept:
		if !ok {
			return nil, ErrClosed
		}
		return c, nil
	case <-l.done:
		return nil, ErrClosed
	}
}

// Close stops the listener and closes every conn dialed but not yet
// accepted, as TCP resets the conns left in a closed listener's backlog:
// their dialers fail at once instead of waiting for a deadline.
func (l *memListener) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.closed {
		l.closed = true
		close(l.done)
		l.net.mu.Lock()
		if l.net.listeners[l.addr] == l {
			delete(l.net.listeners, l.addr)
		}
		l.net.mu.Unlock()
	}
	for {
		select {
		case c := <-l.accept:
			c.Close()
		default:
			return nil
		}
	}
}

func (l *memListener) Addr() string { return l.addr }

// Listen registers a listener for addr.
func (n *MemNetwork) Listen(addr string) (Listener, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, exists := n.listeners[addr]; exists {
		return nil, fmt.Errorf("transport: address %q already listening", addr)
	}
	l := &memListener{
		net:    n,
		addr:   addr,
		accept: make(chan *memConn, 16),
		done:   make(chan struct{}),
	}
	n.listeners[addr] = l
	return l, nil
}

// memConn is one endpoint of an in-memory connection.
type memConn struct {
	local, remote string
	readBuf       *pipeBuf    // data flowing remote -> local
	writeBuf      *pipeBuf    // data flowing local -> remote
	pace          func(n int) // the local -> remote link's pacer; nil = unshaped
}

func (c *memConn) Read(p []byte) (int, error) { return c.readBuf.Read(p) }

// Write goes straight to the ring on an unshaped link. A shaped link is
// paced where its bytes are sent, one chunk of at most maxPaceChunk
// bytes at a time; a failed chunk returns the bytes written before it.
func (c *memConn) Write(p []byte) (int, error) {
	if c.pace == nil {
		return c.writeBuf.Write(p)
	}
	written := 0
	for written < len(p) {
		chunk := p[written:]
		if len(chunk) > maxPaceChunk {
			chunk = chunk[:maxPaceChunk]
		}
		c.pace(len(chunk))
		n, err := c.writeBuf.Write(chunk)
		written += n
		if err != nil {
			return written, err
		}
	}
	return written, nil
}
func (c *memConn) LocalAddr() string  { return c.local }
func (c *memConn) RemoteAddr() string { return c.remote }

// SetReadDeadline bounds blocked and future reads on the conn.
func (c *memConn) SetReadDeadline(t time.Time) error {
	c.readBuf.SetReadDeadline(t)
	return nil
}

// SetWriteDeadline bounds blocked and future writes on the conn.
func (c *memConn) SetWriteDeadline(t time.Time) error {
	c.writeBuf.SetWriteDeadline(t)
	return nil
}

// Close signals the write direction like a TCP FIN: the peer can still
// drain buffered data before seeing EOF. The read direction is abandoned:
// our own blocked reads unblock, and peer writes into a buffer nobody
// will drain fail instead of backing up forever. Both are idempotent.
func (c *memConn) Close() error {
	c.writeBuf.CloseWrite()
	c.readBuf.CloseRead()
	return nil
}

// Dial connects local to remote, pacing each direction by the policy.
func (n *MemNetwork) Dial(local, remote string) (Conn, error) {
	n.mu.Lock()
	l := n.listeners[remote]
	policy := n.policy
	clk := n.clk
	n.mu.Unlock()
	if l == nil {
		return nil, fmt.Errorf("transport: no listener at %q", remote)
	}

	forward := newPipeBuf(memBufSize, clk)  // local -> remote
	backward := newPipeBuf(memBufSize, clk) // remote -> local

	dialer := &memConn{local: local, remote: remote, readBuf: backward, writeBuf: forward}
	acceptor := &memConn{local: remote, remote: local, readBuf: forward, writeBuf: backward}
	if policy != nil {
		dialer.pace, acceptor.pace = policy.Pacer(local, remote), policy.Pacer(remote, local)
	}

	select {
	case l.accept <- acceptor:
	case <-l.done:
		return nil, ErrClosed
	}
	// The select may have picked the send over a closed done after
	// Close drained the queue: closing again takes the conn back out.
	l.mu.Lock()
	closed := l.closed
	l.mu.Unlock()
	if closed {
		l.Close()
		dialer.Close()
		return nil, ErrClosed
	}
	return dialer, nil
}

// ---------------------------------------------------------------------
// TCP network
// ---------------------------------------------------------------------

// TCPTuning configures socket-level options applied to every dialed and
// accepted connection. The zero value leaves the kernel defaults alone;
// DefaultTCPTuning is what NewTCPNetwork uses. TCP_NODELAY is always on
// (Go's default for every TCP conn; nothing here sets it): the proto
// layer already hands each frame to the socket in one write, so Nagle's
// delay would only add ack-bound latency to pipeline setup and
// per-packet acks.
type TCPTuning struct {
	// ReadBuffer and WriteBuffer size SO_RCVBUF / SO_SNDBUF in bytes;
	// 0 keeps the kernel default. Large buffers let one writer keep a
	// fat or long link full (bandwidth-delay product).
	ReadBuffer  int
	WriteBuffer int
}

// DefaultTCPTuning is the tuning NewTCPNetwork applies: 1 MiB socket
// buffers each way.
var DefaultTCPTuning = TCPTuning{ReadBuffer: 1 << 20, WriteBuffer: 1 << 20}

// apply sets the socket options on c when it is a real TCP socket.
// Errors are ignored: tuning is best-effort and the conn works untuned.
func (t TCPTuning) apply(c net.Conn) {
	tc, ok := c.(*net.TCPConn)
	if !ok {
		return
	}
	if t.ReadBuffer > 0 {
		_ = tc.SetReadBuffer(t.ReadBuffer)
	}
	if t.WriteBuffer > 0 {
		_ = tc.SetWriteBuffer(t.WriteBuffer)
	}
}

// TCPNetwork runs the protocol over real sockets. Its links are never
// shaped: a conn reads and writes its socket directly.
type TCPNetwork struct {
	tuning TCPTuning
}

// NewTCPNetwork returns a socket-backed Network with DefaultTCPTuning
// applied to every conn.
func NewTCPNetwork() *TCPNetwork {
	return &TCPNetwork{tuning: DefaultTCPTuning}
}

// NewTCPNetworkTuned returns a socket-backed Network with explicit
// socket tuning. TCP links are never shaped, so policy must be nil; it
// panics on any other, rather than run the links unshaped.
func NewTCPNetworkTuned(policy LinkPolicy, tuning TCPTuning) *TCPNetwork {
	if policy != nil {
		panic("transport: a TCP network cannot be shaped; NewTCPNetworkTuned takes a nil LinkPolicy")
	}
	return &TCPNetwork{tuning: tuning}
}

// tcpConn is a socket named by the endpoint addresses its Dial or Accept
// saw. It reads and writes the socket directly.
type tcpConn struct {
	net.Conn
	local, remote string
}

func (c *tcpConn) LocalAddr() string  { return c.local }
func (c *tcpConn) RemoteAddr() string { return c.remote }

// WriteBuffers emits the vectors in one gather call — writev directly
// from the caller's buffers — consuming the whole vector on success.
func (c *tcpConn) WriteBuffers(bufs *net.Buffers) (int64, error) {
	return bufs.WriteTo(c.Conn)
}

type tcpListener struct {
	net.Listener
	tuning TCPTuning
	addr   string
}

func (l *tcpListener) Accept() (Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	l.tuning.apply(c)
	return &tcpConn{Conn: c, local: l.addr, remote: c.RemoteAddr().String()}, nil
}

func (l *tcpListener) Addr() string { return l.addr }

// Listen opens a TCP listener. addr may be "host:0" to pick a free port;
// Addr() reports the resolved address.
func (n *TCPNetwork) Listen(addr string) (Listener, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &tcpListener{Listener: l, tuning: n.tuning, addr: l.Addr().String()}, nil
}

// Dial connects over TCP.
func (n *TCPNetwork) Dial(local, remote string) (Conn, error) {
	c, err := net.DialTimeout("tcp", remote, 10*time.Second)
	if err != nil {
		return nil, err
	}
	n.tuning.apply(c)
	return &tcpConn{Conn: c, local: local, remote: remote}, nil
}

// DialTimeout dials remote, giving up after d (which must be positive)
// on clk. A connection that completes after the timeout fired is closed,
// not leaked.
func DialTimeout(nw Network, local, remote string, d time.Duration, clk clock.Clock) (Conn, error) {
	type dialResult struct {
		conn Conn
		err  error
	}
	ch := make(chan dialResult, 1)
	go func() {
		c, err := nw.Dial(local, remote)
		ch <- dialResult{c, err}
	}()
	timer := clock.NewTimer(clk, d)
	defer timer.Stop()
	select {
	case r := <-ch:
		return r.conn, r.err
	case <-timer.C:
		go func() {
			if r := <-ch; r.conn != nil {
				r.conn.Close()
			}
		}()
		return nil, fmt.Errorf("transport: dial %s->%s: %w", local, remote, ErrTimeout)
	}
}

// Ensure interface satisfaction.
var (
	_ Network = (*MemNetwork)(nil)
	_ Network = (*TCPNetwork)(nil)
	_ Conn    = (*memConn)(nil)
	_ Conn    = (*tcpConn)(nil)
)
