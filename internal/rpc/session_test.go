package rpc

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/transport"
)

// TestSessionRedialsAfterConnectionLoss: a call over a connection that
// died is a transport failure, so the session drops the connection,
// redials and the same Call succeeds; the caller never sees the loss.
func TestSessionRedialsAfterConnectionLoss(t *testing.T) {
	n := transport.NewMemNetwork(nil)
	startServer(t, n, "nn")
	s := NewSession(n, "client", "nn", time.Second, clock.System)
	defer s.Close()
	var reply addReply
	if err := s.Call("add", addArgs{A: 1, B: 2}, &reply); err != nil || reply.Sum != 3 {
		t.Fatalf("first call: sum %d, err %v", reply.Sum, err)
	}
	first := s.conn
	first.conn.Close() // the transport dies under the session
	if err := s.Call("add", addArgs{A: 2, B: 3}, &reply); err != nil || reply.Sum != 5 {
		t.Fatalf("call after connection loss: sum %d, err %v", reply.Sum, err)
	}
	if s.conn == first {
		t.Fatal("session kept the dead connection")
	}
}

// TestSessionRemoteErrorIsFinal: the server answered, so nothing is
// retried and the error classifies as answered.
func TestSessionRemoteErrorIsFinal(t *testing.T) {
	n := transport.NewMemNetwork(nil)
	srv := startServer(t, n, "nn")
	var calls atomic.Int32
	srv.SetObserver(func(string, time.Duration, bool) { calls.Add(1) })
	s := NewSession(n, "client", "nn", time.Second, clock.System)
	defer s.Close()
	err := s.Call("fail", addArgs{}, &addReply{})
	var remote *RemoteError
	if !errors.As(err, &remote) || !Answered(err) {
		t.Fatalf("err = %v, want a *RemoteError that counts as answered", err)
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("server executed the refused call %d times, want 1", got)
	}
}

// TestSessionTimeoutKeepsConnectionAndRetries: an attempt that times out
// is retried on the same connection — a slow server does not force a
// reconnect — and the call gives up after its attempts with a timeout
// error that does not count as answered.
func TestSessionTimeoutKeepsConnectionAndRetries(t *testing.T) {
	n := transport.NewMemNetwork(nil)
	srv := startServer(t, n, "nn")
	release := make(chan struct{})
	var attempts atomic.Int32
	Handle(srv, "stall", func(a addArgs) (addReply, error) {
		attempts.Add(1)
		<-release
		return addReply{}, nil
	})
	defer close(release)
	s := NewSession(n, "client", "nn", 20*time.Millisecond, clock.System)
	defer s.Close()
	if err := s.Call("add", addArgs{}, nil); err != nil {
		t.Fatal(err)
	}
	conn := s.conn
	err := s.Call("stall", addArgs{}, nil)
	if !transport.IsTimeout(err) || Answered(err) {
		t.Fatalf("err = %v, want an unanswered timeout", err)
	}
	if got := attempts.Load(); got != sessionAttempts {
		t.Fatalf("server saw %d attempts, want %d", got, sessionAttempts)
	}
	if s.conn != conn {
		t.Fatal("a timed-out attempt dropped the connection")
	}
	if err := s.Call("add", addArgs{}, nil); err != nil {
		t.Fatalf("session unusable after a timed-out call: %v", err)
	}
}

// TestSessionCloseEndsBackoff: with nothing listening every attempt fails
// at the dial; Close must end the wait between attempts, and later calls
// fail fast with ErrShutdown.
func TestSessionCloseEndsBackoff(t *testing.T) {
	n := transport.NewMemNetwork(nil)
	clk := clock.NewManual(time.Unix(0, 0)) // never advanced: a backoff would wait forever
	s := NewSession(n, "client", "nobody", time.Second, clk)
	done := make(chan error, 1)
	go func() { done <- s.Call("add", addArgs{}, nil) }()
	time.Sleep(10 * time.Millisecond)
	s.Close()
	select {
	case err := <-done:
		if err == nil || Answered(err) {
			t.Fatalf("err = %v, want the dial failure", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Close did not end the backoff wait")
	}
	if err := s.Call("add", addArgs{}, nil); !errors.Is(err, ErrShutdown) {
		t.Fatalf("call on a closed session: %v, want ErrShutdown", err)
	}
}
