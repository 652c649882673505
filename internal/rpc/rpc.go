// Package rpc is a minimal request/response RPC layer over a
// transport.Network, used for the control plane: the ClientProtocol
// (create / addBlock / complete / recoverBlock / clientHeartbeat) and
// DatanodeProtocol (register / heartbeat / blockReceived) of the
// namenode.
//
// It does three things: multiplexes calls over one connection, bounds a
// call's wait, and keeps what the server said (RemoteError) apart from
// what the transport did. Messages encode themselves (Message); a frame
// is one binary envelope around one message body:
//
//	request:  u32 len | version | u64 seq | method string | body
//	response: u32 len | version | u64 seq | status | body, or error string
//
// A frame is read into one pooled buffer and parsed in place; messages
// copy what they keep, so the buffer goes back to the pool before a
// handler runs or a caller wakes. There is one codec version and no
// negotiation: a frame that does not start with it is rejected. The
// server runs every request on a handler goroutine that serves nothing
// else meanwhile, so slow handlers do not head-of-line block heartbeats;
// a connection keeps a few of them parked between requests (serverConn).
package rpc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/bufpool"
	"repro/internal/clock"
	"repro/internal/transport"
	"repro/internal/wire"
)

// MaxMessage bounds one RPC frame.
const MaxMessage = 4 << 20

// version is the first byte of every frame. It is the only codec version
// there is; clusters are started together.
const version = 1

const (
	statusOK  = 0 // the message body follows
	statusErr = 1 // the handler's error string follows

	lenSize = 4
	// prefixSize is the fixed part both envelopes start with: length,
	// version, sequence number.
	prefixSize = lenSize + 1 + 8
	// frameHint is the usual capacity to start encoding a frame in: every
	// message but a block report or a listing fits the pool's smallest
	// class.
	frameHint = 512
)

// Message is a value that can cross the wire: it appends its own
// encoding (without failing) and parses itself from a whole body, owning
// every byte it keeps. A request is passed to Call by value, so AppendTo
// has a value receiver; a reply is filled through a pointer.
type Message[T any] interface {
	*T
	appender
	parser
}

type appender interface{ AppendTo(dst []byte) []byte }
type parser interface{ ParseFrom(body []byte) error }

// appendPrefix starts a frame: a length to be patched by finishFrame,
// the version and seq.
func appendPrefix(dst []byte, seq uint64) []byte {
	dst = append(dst, 0, 0, 0, 0, version)
	return binary.BigEndian.AppendUint64(dst, seq)
}

// finishFrame patches the length prefix of a complete frame.
func finishFrame(frame []byte) error {
	n := len(frame) - lenSize
	if n > MaxMessage {
		return fmt.Errorf("rpc: message of %d bytes exceeds max", n)
	}
	binary.BigEndian.PutUint32(frame, uint32(n))
	return nil
}

// readFrame reads one length-prefixed frame into a pooled buffer, which
// the caller owns and must return with bufpool.Put. The length is
// checked against MaxMessage before a byte of the body is read.
func readFrame(r io.Reader) (*[]byte, error) {
	// The prefix is read into the pooled buffer too: a local array would
	// escape through the io.Reader and cost an allocation per frame.
	fr := bufpool.Get(lenSize)
	if _, err := io.ReadFull(r, *fr); err != nil {
		bufpool.Put(fr)
		return nil, err
	}
	n := binary.BigEndian.Uint32(*fr)
	if n > MaxMessage {
		bufpool.Put(fr)
		return nil, fmt.Errorf("rpc: incoming message of %d bytes exceeds max", n)
	}
	if int(n) <= cap(*fr) {
		*fr = (*fr)[:n]
	} else {
		bufpool.Put(fr)
		fr = bufpool.Get(int(n))
	}
	if _, err := io.ReadFull(r, *fr); err != nil {
		bufpool.Put(fr)
		return nil, err
	}
	return fr, nil
}

// parsePrefix reads the version and seq every frame starts with.
func parsePrefix(r *wire.Reader) (seq uint64) {
	if v := r.U8(); r.Err() == nil && v != version {
		r.Fail(fmt.Errorf("rpc: frame starts with byte 0x%02x, not codec version %d: the peer speaks another protocol (a JSON-era peer sends '{')", v, version))
	}
	return r.U64()
}

// parseRequest splits a request frame. method and body are views into
// frame, valid until it is recycled.
func parseRequest(frame []byte) (seq uint64, method, body []byte, err error) {
	r := wire.NewReader(frame)
	seq = parsePrefix(&r)
	method = r.StrView()
	body = r.Rest()
	return seq, method, body, r.Err()
}

// parseResponse splits a response frame: body is a view into frame for
// statusOK, remote the server's error text (a copy) for statusErr.
func parseResponse(frame []byte) (seq uint64, body []byte, remote *RemoteError, err error) {
	r := wire.NewReader(frame)
	seq = parsePrefix(&r)
	switch status := r.U8(); {
	case r.Err() != nil:
	case status == statusOK:
		body = r.Rest()
	case status == statusErr:
		remote = &RemoteError{Msg: r.Str()}
	default:
		r.Fail(fmt.Errorf("rpc: unknown response status %d", status))
	}
	return seq, body, remote, r.Done()
}

// Observer receives one callback per handled request with the method
// name, the wall-clock handler duration, and whether the handler (or
// dispatch) failed. Implementations must be concurrency-safe; they run
// on the request's handler goroutine.
type Observer func(method string, d time.Duration, errored bool)

// call is one decoded request, ready to run on a handler goroutine: run
// invokes the handler and appends the encoded response to dst. A call
// is run once; it is recycled as run returns.
type call interface {
	run(dst []byte) ([]byte, error)
}

// handler decodes a request body (a view into the pooled frame, valid
// only during decode) into a call.
type handler struct {
	method string
	decode func(body []byte) (call, error)
}

// Server dispatches named methods.
type Server struct {
	mu       sync.RWMutex
	handlers map[string]handler
	observer Observer
	listener transport.Listener
	conns    map[transport.Conn]struct{} // accepted and still served
	closed   bool
	wg       sync.WaitGroup
}

// NewServer returns an empty server; register handlers before Serve.
func NewServer() *Server {
	return &Server{
		handlers: make(map[string]handler),
		conns:    make(map[transport.Conn]struct{}),
	}
}

// SetObserver installs fn to be notified of every handled request (RPC
// latency attribution). Install it before Serve; nil disables.
func (s *Server) SetObserver(fn Observer) {
	s.mu.Lock()
	s.observer = fn
	s.mu.Unlock()
}

// typedCall is the call of one Handle registration: request, handler
// and response in one allocation, recycled through the registration's
// pool. The next request is parsed over the last one, so a message that
// keeps a map can refill it (nnapi.ClientHeartbeatReq does).
type typedCall[Req, Resp any, PResp Message[Resp]] struct {
	fn   func(Req) (Resp, error)
	pool *sync.Pool
	req  Req
	resp Resp
}

// run invokes the handler, appends the encoded response to dst and
// returns the call to its pool, the response zeroed so the pool keeps
// nothing a reply referenced.
func (c *typedCall[Req, Resp, PResp]) run(dst []byte) ([]byte, error) {
	var err error
	if c.resp, err = c.fn(c.req); err == nil {
		dst = PResp(&c.resp).AppendTo(dst)
	}
	var zero Resp
	c.resp = zero
	c.pool.Put(c)
	return dst, err
}

// Handle installs a typed handler for method: the request body parses
// into a Req and the returned Resp is appended to the response frame.
// The pointer type parameters are inferred from fn.
//
// Requests are decoded into recycled memory: a handler must not keep its
// request's maps past return (copy what it needs, as core.Registry.Update
// does), because the next request of the method may be parsed into them.
func Handle[Req, Resp any, PReq Message[Req], PResp Message[Resp]](s *Server, method string, fn func(Req) (Resp, error)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.handlers[method]; dup {
		panic("rpc: duplicate handler for " + method)
	}
	pool := new(sync.Pool)
	pool.New = func() any { return &typedCall[Req, Resp, PResp]{fn: fn, pool: pool} }
	s.handlers[method] = handler{method: method, decode: func(body []byte) (call, error) {
		c := pool.Get().(*typedCall[Req, Resp, PResp])
		if err := PReq(&c.req).ParseFrom(body); err != nil {
			pool.Put(c)
			return nil, fmt.Errorf("rpc: bad %s request: %w", method, err)
		}
		return c, nil
	}}
}

// Serve accepts connections on l until the listener closes. It returns
// after the accept loop exits; in-flight connections drain in background
// goroutines tracked by Close.
func (s *Server) Serve(l transport.Listener) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		l.Close()
		return
	}
	s.listener = l
	s.mu.Unlock()
	for {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go func() {
			defer s.wg.Done()
			s.serveConn(conn)
			s.mu.Lock()
			delete(s.conns, conn)
			s.mu.Unlock()
		}()
	}
}

// Close stops the listener, closes every accepted connection — a peer
// that keeps an idle connection open must not hold the server up, and a
// call in flight fails at its caller as a transport error — and waits
// for the connection goroutines and the handlers they started.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	l := s.listener
	for conn := range s.conns {
		conn.Close() // unparks its read loop; serveConn closes it again, harmlessly
	}
	s.mu.Unlock()
	if l != nil {
		l.Close()
	}
	s.wg.Wait()
}

// maxParked is how many idle handler goroutines a connection keeps
// between requests. A closed-loop caller needs one; a few more cover a
// caller that keeps several calls in flight. What a burst starts beyond
// them exits when it has answered.
const maxParked = 4

// request is one decoded request on its way to a handler goroutine: the
// call to run, or failure when the read loop already knows the answer is
// an error.
type request struct {
	seq      uint64
	method   string
	c        call
	failure  string
	observer Observer
}

// serverConn is one accepted connection: its responses share a write
// lock, and its read loop outlives no handler it started.
//
// Requests run on handler goroutines that park on work between requests
// rather than on one goroutine per request, so the stack a handler grew
// once (placement, the namenode lock path, the codec) serves the next
// request too. The read loop hands a request to a parked handler when
// idle holds a token for one and starts a handler otherwise, so a
// request never waits for another to finish; idle's capacity is how many
// handlers may park.
type serverConn struct {
	conn     transport.Conn
	writeMu  sync.Mutex
	handlers sync.WaitGroup
	work     chan request  // unbuffered; closed when the read loop ends
	idle     chan struct{} // a token per handler parked on work (or about to) that no request has claimed
}

func (s *Server) serveConn(conn transport.Conn) {
	sc := &serverConn{conn: conn, work: make(chan request), idle: make(chan struct{}, maxParked)}
	defer conn.Close()
	defer sc.handlers.Wait()
	defer close(sc.work) // parked handlers exit
	for {
		fr, err := readFrame(conn)
		if err != nil {
			return
		}
		seq, method, body, err := parseRequest(*fr)
		if err != nil {
			// Not this protocol: there is no envelope to answer in.
			bufpool.Put(fr)
			return
		}
		s.mu.RLock()
		h, known := s.handlers[string(method)] // h.method: the name without a per-request string
		observer := s.observer
		s.mu.RUnlock()
		// Decode here, in place, so the frame never leaves this loop: what
		// crosses to the handler goroutine owns its memory.
		req := request{seq: seq, method: h.method, observer: observer}
		if !known {
			req.method = string(method)
			req.failure = "rpc: unknown method " + req.method
		} else if req.c, err = h.decode(body); err != nil {
			req.failure = err.Error()
		}
		bufpool.Put(fr)
		sc.dispatch(req)
	}
}

// dispatch hands req to a parked handler, or to a new one when none is
// idle. Only the read loop calls it, so each idle token it takes is
// matched by exactly one send, which that token's handler is about to
// receive.
func (sc *serverConn) dispatch(req request) {
	select {
	case <-sc.idle:
		sc.work <- req
	default:
		sc.handlers.Add(1)
		go sc.handle(req)
	}
}

// handle answers req and then the requests handed to it on work, until
// the connection ends or maxParked other handlers are already idle.
func (sc *serverConn) handle(req request) {
	defer sc.handlers.Done()
	for open := true; open; req, open = <-sc.work {
		sc.respond(req)
		select {
		case sc.idle <- struct{}{}:
		default:
			return
		}
	}
}

// respond runs one decoded request and writes the response frame: the
// call's encoded result, or failure (a dispatch error found by the read
// loop, or the handler's error) as a string.
func (sc *serverConn) respond(req request) {
	var start time.Time
	if req.observer != nil {
		start = time.Now()
	}
	bp := bufpool.GetCap(frameHint)
	defer bufpool.Put(bp)
	buf := append(appendPrefix(*bp, req.seq), statusOK)
	failure := req.failure
	if failure == "" {
		var err error
		if buf, err = req.c.run(buf); err != nil {
			failure = err.Error()
		} else if err = finishFrame(buf); err != nil {
			failure = "rpc: encode response: " + err.Error()
		}
	}
	if failure != "" {
		buf = append(buf[:prefixSize], statusErr)
		buf = wire.AppendString(buf, failure)
		_ = finishFrame(buf) // an error string, far below MaxMessage
	}
	*bp = buf
	if req.observer != nil {
		req.observer(req.method, time.Since(start), failure != "")
	}
	sc.writeMu.Lock()
	defer sc.writeMu.Unlock()
	_, _ = sc.conn.Write(buf) // a broken conn ends the read loop
}

// ErrShutdown is returned by calls on a closed client.
var ErrShutdown = errors.New("rpc: client is shut down")

// RemoteError is a server-side failure surfaced to the caller.
type RemoteError struct{ Msg string }

func (e *RemoteError) Error() string { return e.Msg }

// pendingCall is a call waiting for its response. The read loop parses
// the response into reply and sends the outcome on done.
type pendingCall struct {
	method string
	reply  parser     // nil: the caller does not want the body
	done   chan error // buffered 1: nil, *RemoteError or a decode error; closed when the conn dies
}

// donePool recycles pendingCall.done channels. One goes back only from
// a call that knows nothing can still send on it: it received the one
// outcome, or it removed its own pending entry before the read loop saw
// it. A channel closed by shutdown is dropped.
var donePool = sync.Pool{New: func() any { return make(chan error, 1) }}

// Client issues calls over a single multiplexed connection.
type Client struct {
	conn    transport.Conn
	writeMu sync.Mutex

	mu      sync.Mutex
	seq     uint64
	pending map[uint64]pendingCall
	closed  bool
	err     error
}

// Dial connects local to the server at remote over net.
func Dial(net transport.Network, local, remote string) (*Client, error) {
	conn, err := net.Dial(local, remote)
	if err != nil {
		return nil, err
	}
	return NewClient(conn), nil
}

// NewClient wraps an already-established connection (e.g. one made with
// transport.DialTimeout) as an RPC client.
func NewClient(conn transport.Conn) *Client {
	c := &Client{
		conn:    conn,
		pending: make(map[uint64]pendingCall),
	}
	go c.readLoop()
	return c
}

func (c *Client) readLoop() {
	for {
		fr, err := readFrame(c.conn)
		if err != nil {
			c.shutdown(err)
			return
		}
		seq, body, remote, err := parseResponse(*fr)
		if err != nil {
			bufpool.Put(fr)
			c.shutdown(err)
			return
		}
		c.mu.Lock()
		p, waiting := c.pending[seq]
		delete(c.pending, seq)
		c.mu.Unlock()
		// Parse in place, then recycle: the reply owns what it keeps, and a
		// response nobody waits for any more is dropped with the frame.
		var outcome error
		switch {
		case !waiting:
		case remote != nil:
			outcome = remote
		case p.reply != nil:
			if err := p.reply.ParseFrom(body); err != nil {
				outcome = fmt.Errorf("rpc: decode %s reply: %w", p.method, err)
			}
		}
		bufpool.Put(fr)
		if waiting {
			p.done <- outcome
		}
	}
}

func (c *Client) shutdown(err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return
	}
	c.closed = true
	if err == nil {
		err = ErrShutdown
	}
	c.err = err
	// A closed channel, not an outcome: the failure is local (the conn
	// died), and the waiter reports c.err as a transport error so callers
	// that retry those and drop the conn do. RemoteError is reserved for
	// what the server said.
	for seq, p := range c.pending {
		delete(c.pending, seq)
		close(p.done)
	}
	c.conn.Close()
}

// Close tears the connection down; pending calls fail.
func (c *Client) Close() { c.shutdown(ErrShutdown) }

// ErrCallTimeout is returned by CallTimeout when the server does not
// respond within the budget. It satisfies transport.IsTimeout.
var ErrCallTimeout error = &callTimeoutError{}

type callTimeoutError struct{}

func (*callTimeoutError) Error() string   { return "rpc: call timed out" }
func (*callTimeoutError) Timeout() bool   { return true }
func (*callTimeoutError) Temporary() bool { return true }

// Call invokes method with arg and decodes the result into reply (which
// may be nil for methods without results). arg is a Message passed by
// value and reply a pointer to one; anything else is an error. It waits
// for the response indefinitely; use CallTimeout to bound the wait.
func (c *Client) Call(method string, arg, reply any) error {
	return c.CallTimeout(method, arg, reply, 0, nil)
}

// CallTimeout is Call with a response deadline measured on clk: if the
// server has not answered within timeout, the call fails with
// ErrCallTimeout. The request stays pending — a late response is
// discarded by the read loop — and the connection remains usable, so a
// slow namenode does not force a reconnect. timeout <= 0 or nil clk
// waits forever.
func (c *Client) CallTimeout(method string, arg, reply any, timeout time.Duration, clk clock.Clock) error {
	p := pendingCall{method: method}
	var req appender
	if arg != nil {
		if req, _ = arg.(appender); req == nil {
			return fmt.Errorf("rpc: encode %s request: %T is not a wire message", method, arg)
		}
	}
	if reply != nil {
		if p.reply, _ = reply.(parser); p.reply == nil {
			return fmt.Errorf("rpc: decode %s reply: %T is not a pointer to a wire message", method, reply)
		}
	}

	p.done = donePool.Get().(chan error)
	c.mu.Lock()
	if c.closed {
		err := c.err
		c.mu.Unlock()
		donePool.Put(p.done)
		return err
	}
	c.seq++
	seq := c.seq
	c.pending[seq] = p
	c.mu.Unlock()

	if err := c.send(seq, method, req); err != nil {
		c.mu.Lock()
		delete(c.pending, seq)
		c.mu.Unlock()
		return err
	}

	var outcome error
	var ok bool // false: done was closed, the connection died
	if timeout > 0 && clk != nil {
		timer := clock.NewTimer(clk, timeout)
		defer timer.Stop()
		select {
		case outcome, ok = <-p.done:
		case <-timer.C:
			c.mu.Lock()
			_, unanswered := c.pending[seq]
			delete(c.pending, seq)
			c.mu.Unlock()
			if unanswered {
				// Abandoned: with the entry gone the read loop drops the
				// late response and never touches reply or done.
				donePool.Put(p.done)
				return fmt.Errorf("rpc: %s: %w", method, ErrCallTimeout)
			}
			// The read loop took the entry first and is filling reply right
			// now; its outcome is a parse away, and returning before it
			// would hand the caller a reply that is still being written.
			outcome, ok = <-p.done
		}
	} else {
		outcome, ok = <-p.done
	}
	if !ok {
		c.mu.Lock()
		err := c.err
		c.mu.Unlock()
		return fmt.Errorf("rpc: %s: connection lost: %w", method, err)
	}
	donePool.Put(p.done)
	return outcome
}

// send writes one request frame. An encoding that exceeds MaxMessage is
// the caller's error and leaves the connection usable; a failed write
// shuts the client down.
func (c *Client) send(seq uint64, method string, req appender) error {
	bp := bufpool.GetCap(frameHint)
	defer bufpool.Put(bp)
	buf := wire.AppendString(appendPrefix(*bp, seq), method)
	if req != nil {
		buf = req.AppendTo(buf)
	}
	*bp = buf
	if err := finishFrame(buf); err != nil {
		return fmt.Errorf("rpc: encode %s request: %w", method, err)
	}
	c.writeMu.Lock()
	_, err := c.conn.Write(buf)
	c.writeMu.Unlock()
	if err != nil {
		c.shutdown(err)
	}
	return err
}
