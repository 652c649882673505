// Package faultnet wraps a transport.Network with the three faults the
// timeout/recovery tests inject: a frozen endpoint (the "hung process"
// model: the node neither crashes nor closes its connections, it just
// stops making progress), a link that goes silent after N bytes, and a
// dial that hangs.
//
// Faults are applied on the faulty side's operations, so the healthy
// peer starves naturally and its own deadlines fire exactly as they
// would against a real wedged process.
//
// Concurrency invariants: a Network is safe for concurrent use — faults
// (SetLink, ClearLink, Freeze, Thaw) may be set or cleared from any
// goroutine, including while transfers are in flight on the links they
// affect; changes take effect on the next operation that consults them.
// A frozen endpoint blocks inside its own Read/Write/Dial calls until
// thawed or the conn is closed from elsewhere; freezing never closes
// conns itself, because the hung-process model requires the peer's
// deadline — not an EOF — to be what ends the transfer.
package faultnet

import (
	"sync"
	"sync/atomic"

	"repro/internal/transport"
)

// Fault describes the failure behavior of one directed link (src→dst).
// The zero value is a healthy link.
type Fault struct {
	// DropAfter blackholes the link after that many bytes have been
	// written: writes keep reporting success but nothing reaches the
	// peer, like a connection whose other half silently vanished.
	// 0 disables; negative drops everything from the first byte.
	DropAfter int64
	// DialHang makes dials over the link block until the fault is
	// cleared (pair with transport.DialTimeout on the caller side).
	DialHang bool
}

// Network wraps an inner transport.Network with fault injection.
type Network struct {
	inner transport.Network

	mu     sync.Mutex
	cond   *sync.Cond
	links  map[[2]string]Fault // by directed link {src, dst}
	frozen map[string]bool
}

// Wrap decorates inner.
func Wrap(inner transport.Network) *Network {
	n := &Network{
		inner:  inner,
		links:  make(map[[2]string]Fault),
		frozen: make(map[string]bool),
	}
	n.cond = sync.NewCond(&n.mu)
	return n
}

// SetLink installs (or replaces) the fault on the directed link
// src→dst.
func (n *Network) SetLink(src, dst string, f Fault) {
	n.mu.Lock()
	n.links[[2]string{src, dst}] = f
	n.cond.Broadcast()
	n.mu.Unlock()
}

// ClearLink removes the fault on src→dst, waking any operation blocked
// on it.
func (n *Network) ClearLink(src, dst string) {
	n.mu.Lock()
	delete(n.links, [2]string{src, dst})
	n.cond.Broadcast()
	n.mu.Unlock()
}

// Freeze wedges an endpoint: every subsequent operation on connections
// whose local side is name blocks until Thaw. Unlike a partition, no
// connection breaks and no error surfaces at the frozen node — exactly
// the stall a deadline on the healthy side must catch.
func (n *Network) Freeze(name string) {
	n.mu.Lock()
	n.frozen[name] = true
	n.mu.Unlock()
}

// Thaw unfreezes an endpoint.
func (n *Network) Thaw(name string) {
	n.mu.Lock()
	delete(n.frozen, name)
	n.cond.Broadcast()
	n.mu.Unlock()
}

// Listen delegates to the inner network; accepted conns are wrapped so
// endpoint and link faults apply to them too.
func (n *Network) Listen(addr string) (transport.Listener, error) {
	l, err := n.inner.Listen(addr)
	if err != nil {
		return nil, err
	}
	return &listener{Listener: l, net: n}, nil
}

// Dial blocks while the dialer is frozen or the link's dial hangs, then
// delegates and wraps.
func (n *Network) Dial(local, remote string) (transport.Conn, error) {
	n.mu.Lock()
	for n.links[[2]string{local, remote}].DialHang || n.frozen[local] {
		n.cond.Wait()
	}
	n.mu.Unlock()
	c, err := n.inner.Dial(local, remote)
	if err != nil {
		return nil, err
	}
	return &conn{Conn: c, net: n}, nil
}

type listener struct {
	transport.Listener
	net *Network
}

func (l *listener) Accept() (transport.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &conn{Conn: c, net: l.net}, nil
}

// conn decorates one endpoint of a connection. Deadline methods promote
// from the embedded transport.Conn, so proto-level timeouts keep
// working through the wrapper.
type conn struct {
	transport.Conn
	net    *Network
	closed atomic.Bool
	sent   atomic.Int64 // bytes written, for DropAfter accounting
}

func (c *conn) Close() error {
	c.closed.Store(true)
	err := c.Conn.Close()
	c.net.mu.Lock()
	c.net.cond.Broadcast() // wake ops gated on this conn
	c.net.mu.Unlock()
	return err
}

// gate blocks while the conn's local endpoint is frozen, then returns
// the link's fault, or ErrClosed once the conn is closed.
func (c *conn) gate() (Fault, error) {
	local := c.LocalAddr()
	c.net.mu.Lock()
	for c.net.frozen[local] && !c.closed.Load() {
		c.net.cond.Wait()
	}
	f := c.net.links[[2]string{local, c.RemoteAddr()}]
	c.net.mu.Unlock()
	if c.closed.Load() {
		return Fault{}, transport.ErrClosed
	}
	return f, nil
}

// Read gates on the local endpoint's frozen state, then delegates. A
// frozen node keeps its connections open but stops consuming, so the
// peer's buffers back up and its deadlines fire.
func (c *conn) Read(p []byte) (int, error) {
	if _, err := c.gate(); err != nil {
		return 0, err
	}
	return c.Conn.Read(p)
}

// Write gates on freeze, applies drop accounting, then delegates.
func (c *conn) Write(p []byte) (int, error) {
	f, err := c.gate()
	if err != nil {
		return 0, err
	}
	sent := c.sent.Add(int64(len(p))) - int64(len(p))
	if f.DropAfter == 0 {
		return c.Conn.Write(p)
	}
	limit := max(f.DropAfter, 0)
	if sent >= limit {
		return len(p), nil // fully blackholed
	}
	if sent+int64(len(p)) > limit {
		if _, err := c.Conn.Write(p[:limit-sent]); err != nil {
			return 0, err
		}
		return len(p), nil // tail blackholed
	}
	return c.Conn.Write(p)
}
