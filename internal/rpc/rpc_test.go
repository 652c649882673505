package rpc

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/transport"
)

type addArgs struct{ A, B int }
type addReply struct{ Sum int }

func startServer(t *testing.T, n *transport.MemNetwork, addr string) *Server {
	t.Helper()
	s := NewServer()
	Handle(s, "add", func(a addArgs) (addReply, error) {
		return addReply{Sum: a.A + a.B}, nil
	})
	Handle(s, "fail", func(a addArgs) (addReply, error) {
		return addReply{}, errors.New("deliberate failure")
	})
	Handle(s, "slow", func(a addArgs) (addReply, error) {
		time.Sleep(50 * time.Millisecond)
		return addReply{Sum: -1}, nil
	})
	Handle(s, "noreply", func(a addArgs) (struct{}, error) {
		return struct{}{}, nil
	})
	l, err := n.Listen(addr)
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(l)
	t.Cleanup(s.Close)
	return s
}

func TestCall(t *testing.T) {
	n := transport.NewMemNetwork(nil)
	startServer(t, n, "nn")
	c, err := Dial(n, "client", "nn")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var reply addReply
	if err := c.Call("add", addArgs{A: 2, B: 3}, &reply); err != nil {
		t.Fatal(err)
	}
	if reply.Sum != 5 {
		t.Fatalf("sum = %d, want 5", reply.Sum)
	}
}

func TestRemoteError(t *testing.T) {
	n := transport.NewMemNetwork(nil)
	startServer(t, n, "nn")
	c, _ := Dial(n, "client", "nn")
	defer c.Close()
	err := c.Call("fail", addArgs{}, &addReply{})
	var re *RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("err = %v, want RemoteError", err)
	}
	if !strings.Contains(re.Error(), "deliberate failure") {
		t.Fatalf("error text = %q", re.Error())
	}
}

func TestUnknownMethod(t *testing.T) {
	n := transport.NewMemNetwork(nil)
	startServer(t, n, "nn")
	c, _ := Dial(n, "client", "nn")
	defer c.Close()
	err := c.Call("no-such-method", addArgs{}, nil)
	if err == nil || !strings.Contains(err.Error(), "unknown method") {
		t.Fatalf("err = %v, want unknown method", err)
	}
}

func TestNilReply(t *testing.T) {
	n := transport.NewMemNetwork(nil)
	startServer(t, n, "nn")
	c, _ := Dial(n, "client", "nn")
	defer c.Close()
	if err := c.Call("noreply", addArgs{}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentCallsMultiplex(t *testing.T) {
	n := transport.NewMemNetwork(nil)
	startServer(t, n, "nn")
	c, _ := Dial(n, "client", "nn")
	defer c.Close()
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var reply addReply
			if err := c.Call("add", addArgs{A: i, B: i}, &reply); err != nil {
				errs <- err
				return
			}
			if reply.Sum != 2*i {
				errs <- fmt.Errorf("call %d: sum = %d", i, reply.Sum)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestSlowHandlerDoesNotBlockFast(t *testing.T) {
	n := transport.NewMemNetwork(nil)
	startServer(t, n, "nn")
	c, _ := Dial(n, "client", "nn")
	defer c.Close()

	slowDone := make(chan struct{})
	go func() {
		defer close(slowDone)
		c.Call("slow", addArgs{}, &addReply{})
	}()
	time.Sleep(5 * time.Millisecond)
	start := time.Now()
	var reply addReply
	if err := c.Call("add", addArgs{A: 1, B: 1}, &reply); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 40*time.Millisecond {
		t.Fatalf("fast call took %v behind a slow one", elapsed)
	}
	<-slowDone
}

func TestClientCloseFailsPending(t *testing.T) {
	n := transport.NewMemNetwork(nil)
	startServer(t, n, "nn")
	c, _ := Dial(n, "client", "nn")
	done := make(chan error, 1)
	go func() {
		done <- c.Call("slow", addArgs{}, &addReply{})
	}()
	time.Sleep(5 * time.Millisecond)
	c.Close()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("pending call succeeded after Close")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("pending call hung after Close")
	}
	if err := c.Call("add", addArgs{}, nil); err == nil {
		t.Fatal("call on closed client succeeded")
	}
}

// TestPendingCallTransportFailureIsNotRemote kills the connection under
// a call that is waiting for its response. The failure is local — the
// server said nothing — so it must not surface as *RemoteError: callers
// (client.callNN, datanode.callNN) return remote errors as final and
// retry, and drop the cached conn, only on transport errors.
func TestPendingCallTransportFailureIsNotRemote(t *testing.T) {
	n := transport.NewMemNetwork(nil)
	startServer(t, n, "nn")
	conn, err := n.Dial("client", "nn")
	if err != nil {
		t.Fatal(err)
	}
	c := NewClient(conn)
	defer c.Close()
	done := make(chan error, 1)
	go func() {
		done <- c.Call("slow", addArgs{}, &addReply{})
	}()
	time.Sleep(5 * time.Millisecond)
	conn.Close()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("pending call succeeded over a dead connection")
		}
		var re *RemoteError
		if errors.As(err, &re) {
			t.Fatalf("err = %v reported as RemoteError; the server never answered", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("pending call hung after the connection died")
	}
}

func TestServerPartitionFailsCall(t *testing.T) {
	n := transport.NewMemNetwork(nil)
	startServer(t, n, "nn")
	c, _ := Dial(n, "client", "nn")
	defer c.Close()
	var reply addReply
	if err := c.Call("add", addArgs{A: 1, B: 2}, &reply); err != nil {
		t.Fatal(err)
	}
	n.Partition("nn")
	if err := c.Call("add", addArgs{A: 1, B: 2}, &reply); err == nil {
		t.Fatal("call across partition succeeded")
	}
}

func TestDuplicateRegisterPanics(t *testing.T) {
	s := NewServer()
	Handle(s, "m", func(a addArgs) (addReply, error) { return addReply{}, nil })
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate register did not panic")
		}
	}()
	Handle(s, "m", func(a addArgs) (addReply, error) { return addReply{}, nil })
}

func TestManySequentialCalls(t *testing.T) {
	n := transport.NewMemNetwork(nil)
	startServer(t, n, "nn")
	c, _ := Dial(n, "client", "nn")
	defer c.Close()
	for i := 0; i < 500; i++ {
		var reply addReply
		if err := c.Call("add", addArgs{A: i, B: 1}, &reply); err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		if reply.Sum != i+1 {
			t.Fatalf("call %d: sum = %d", i, reply.Sum)
		}
	}
}

func TestOversizedMessageRejected(t *testing.T) {
	n := transport.NewMemNetwork(nil)
	startServer(t, n, "nn")
	c, _ := Dial(n, "client", "nn")
	defer c.Close()
	huge := struct{ Blob string }{Blob: strings.Repeat("x", MaxMessage+1)}
	if err := c.Call("add", huge, nil); err == nil {
		t.Fatal("oversized request accepted")
	}
}

func TestMultipleClientsOneServer(t *testing.T) {
	n := transport.NewMemNetwork(nil)
	startServer(t, n, "nn")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := Dial(n, fmt.Sprintf("client-%d", i), "nn")
			if err != nil {
				t.Errorf("dial %d: %v", i, err)
				return
			}
			defer c.Close()
			for j := 0; j < 20; j++ {
				var reply addReply
				if err := c.Call("add", addArgs{A: i, B: j}, &reply); err != nil {
					t.Errorf("client %d call %d: %v", i, j, err)
					return
				}
				if reply.Sum != i+j {
					t.Errorf("client %d: sum = %d, want %d", i, reply.Sum, i+j)
					return
				}
			}
		}(i)
	}
	wg.Wait()
}

func TestCallTimeout(t *testing.T) {
	n := transport.NewMemNetwork(nil)
	s := NewServer()
	release := make(chan struct{})
	Handle(s, "stall", func(a addArgs) (addReply, error) {
		<-release
		return addReply{Sum: 42}, nil
	})
	Handle(s, "add", func(a addArgs) (addReply, error) {
		return addReply{Sum: a.A + a.B}, nil
	})
	l, err := n.Listen("nn")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(l)
	t.Cleanup(func() { close(release); s.Close() })

	c, err := Dial(n, "client", "nn")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	var reply addReply
	err = c.CallTimeout("stall", addArgs{}, &reply, 50*time.Millisecond, clock.System)
	if !errors.Is(err, ErrCallTimeout) {
		t.Fatalf("err = %v, want ErrCallTimeout", err)
	}
	if !transport.IsTimeout(err) {
		t.Fatalf("IsTimeout(%v) = false", err)
	}

	// The connection must survive an abandoned call.
	if err := c.CallTimeout("add", addArgs{A: 2, B: 3}, &reply, time.Second, clock.System); err != nil {
		t.Fatalf("call after timeout: %v", err)
	}
	if reply.Sum != 5 {
		t.Fatalf("sum = %d, want 5", reply.Sum)
	}
}

func TestCallTimeoutVirtualClock(t *testing.T) {
	n := transport.NewMemNetwork(nil)
	s := NewServer()
	release := make(chan struct{})
	Handle(s, "stall", func(a addArgs) (addReply, error) {
		<-release
		return addReply{}, nil
	})
	l, err := n.Listen("nn")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(l)
	t.Cleanup(func() { close(release); s.Close() })

	c, err := Dial(n, "client", "nn")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	clk := clock.NewManual(time.Unix(0, 0))
	errs := make(chan error, 1)
	go func() {
		errs <- c.CallTimeout("stall", addArgs{}, nil, time.Minute, clk)
	}()
	time.Sleep(20 * time.Millisecond)
	select {
	case err := <-errs:
		t.Fatalf("call returned %v before virtual time advanced", err)
	default:
	}
	clk.Advance(2 * time.Minute)
	select {
	case err := <-errs:
		if !errors.Is(err, ErrCallTimeout) {
			t.Fatalf("err = %v, want ErrCallTimeout", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("virtual-clock call timeout did not fire")
	}
}
