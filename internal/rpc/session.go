package rpc

import (
	"errors"
	"math/rand"
	"sync"
	"time"

	"repro/internal/clock"
	"repro/internal/obs"
	"repro/internal/transport"
)

// Retry schedule of a Session call: up to sessionAttempts attempts, with
// a jittered backoff doubling from sessionBackoff to sessionMaxBackoff
// between them.
const (
	sessionAttempts   = 4
	sessionBackoff    = 50 * time.Millisecond
	sessionMaxBackoff = time.Second
)

// Answered reports whether the server received the call and replied —
// with a result (nil) or a refusal (*RemoteError). Anything else is a
// transport failure: the request may or may not have run, and only
// those are worth retrying or re-sending.
func Answered(err error) bool {
	var remote *RemoteError
	return err == nil || errors.As(err, &remote)
}

// Session is a long-lived caller to one server: it dials on demand, keeps
// the connection across calls, and carries a call through transport
// failures. Clients and datanodes both talk to the namenode through one.
// Safe for concurrent use.
type Session struct {
	net           transport.Network
	local, remote string
	timeout       time.Duration
	clk           clock.Clock

	// Latency and Retries, when set before the first Call, receive each
	// attempt's duration and a count of attempts after the first.
	Latency *obs.Histogram
	Retries *obs.Counter

	mu     sync.Mutex
	conn   *Client
	closed bool
	stop   chan struct{}
}

// NewSession prepares a session from local to the server at remote; the
// first Call dials. timeout, measured on clk, bounds the dial and each
// attempt of a call separately; it must be positive.
func NewSession(net transport.Network, local, remote string, timeout time.Duration, clk clock.Clock) *Session {
	return &Session{net: net, local: local, remote: remote, timeout: timeout, clk: clk, stop: make(chan struct{})}
}

// client returns the cached connection, dialing if there is none.
// Concurrent callers wait for the one dial.
func (s *Session) client() (*Client, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrShutdown
	}
	if s.conn == nil {
		conn, err := transport.DialTimeout(s.net, s.local, s.remote, s.timeout, s.clk)
		if err != nil {
			return nil, err
		}
		s.conn = NewClient(conn)
	}
	return s.conn, nil
}

// Call is Client.Call with retries. An answer from the server, result or
// *RemoteError, is final — retrying a refusal is the application's
// decision. A transport failure is retried after a jittered backoff, so
// callers cut off together do not return in lockstep: an attempt that
// timed out keeps the connection (the late reply is discarded), any
// other failure drops it and the next attempt redials. Close ends the
// backoff wait early. The server may execute a retried request twice.
func (s *Session) Call(method string, arg, reply any) error {
	backoff := sessionBackoff
	var err error
	for attempt := 0; attempt < sessionAttempts; attempt++ {
		if attempt > 0 {
			s.Retries.Inc()
			select {
			case <-s.stop:
				return err
			case <-s.clk.After(backoff/2 + time.Duration(rand.Int63n(int64(backoff)))):
			}
			backoff = min(2*backoff, sessionMaxBackoff)
		}
		var cl *Client
		if cl, err = s.client(); err != nil {
			continue
		}
		var start time.Time
		if s.Latency != nil {
			start = s.clk.Now()
		}
		err = cl.CallTimeout(method, arg, reply, s.timeout, s.clk)
		if s.Latency != nil {
			s.Latency.ObserveSince(start, s.clk.Now())
		}
		if Answered(err) {
			return err
		}
		if !transport.IsTimeout(err) {
			s.mu.Lock()
			if s.conn == cl {
				s.conn = nil
			}
			s.mu.Unlock()
			cl.Close()
		}
	}
	return err
}

// Close drops the connection and fails calls in flight; later calls
// return ErrShutdown.
func (s *Session) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	conn := s.conn
	s.conn = nil
	s.mu.Unlock()
	close(s.stop)
	if conn != nil {
		conn.Close()
	}
}
