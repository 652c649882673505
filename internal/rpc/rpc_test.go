package rpc

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/block"
	"repro/internal/bufpool"
	"repro/internal/clock"
	"repro/internal/nnapi"
	"repro/internal/proto"
	"repro/internal/transport"
	"repro/internal/wire"
)

type addArgs struct{ A, B int }

func (a addArgs) AppendTo(dst []byte) []byte { return wire.AppendInt(wire.AppendInt(dst, a.A), a.B) }
func (a *addArgs) ParseFrom(b []byte) error {
	r := wire.NewReader(b)
	*a = addArgs{A: r.Int(), B: r.Int()}
	return r.Done()
}

type addReply struct{ Sum int }

func (a addReply) AppendTo(dst []byte) []byte { return wire.AppendInt(dst, a.Sum) }
func (a *addReply) ParseFrom(b []byte) error {
	r := wire.NewReader(b)
	*a = addReply{Sum: r.Int()}
	return r.Done()
}

// blob is a message of any size.
type blob struct{ Data string }

func (m blob) AppendTo(dst []byte) []byte { return wire.AppendString(dst, m.Data) }
func (m *blob) ParseFrom(b []byte) error {
	r := wire.NewReader(b)
	*m = blob{Data: r.Str()}
	return r.Done()
}

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
	Handle(s, "echo", func(m blob) (blob, error) { return m, nil })
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
	if err := c.Call("add", addArgs{}, nil); err != nil {
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
// (Session.Call) return remote errors as final and retry, and drop the
// cached conn, only on transport errors.
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

// TestServerCloseFailsCall: a server that closes is gone to its
// callers, as a crashed one is: a call on the connection it served fails,
// and so does a new dial.
func TestServerCloseFailsCall(t *testing.T) {
	n := transport.NewMemNetwork(nil)
	srv := startServer(t, n, "nn")
	c, _ := Dial(n, "client", "nn")
	defer c.Close()
	var reply addReply
	if err := c.Call("add", addArgs{A: 1, B: 2}, &reply); err != nil {
		t.Fatal(err)
	}
	srv.Close()
	if err := c.Call("add", addArgs{A: 1, B: 2}, &reply); err == nil {
		t.Fatal("call to a closed server succeeded")
	}
	if c2, err := Dial(n, "client", "nn"); err == nil {
		c2.Close()
		t.Fatal("dial to a closed server succeeded")
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
	s := startServer(t, n, "nn")
	c, _ := Dial(n, "client", "nn")
	defer c.Close()
	if err := c.Call("echo", blob{Data: strings.Repeat("x", MaxMessage+1)}, nil); err == nil {
		t.Fatal("oversized request accepted")
	}
	// Refused before it was sent: the connection is still good.
	var reply addReply
	if err := c.Call("add", addArgs{A: 1, B: 2}, &reply); err != nil || reply.Sum != 3 {
		t.Fatalf("call after an oversized request: %v, sum %d", err, reply.Sum)
	}
	// A response that outgrows the frame comes back as the server's error.
	var re *RemoteError
	half := blob{Data: strings.Repeat("x", MaxMessage-64)}
	if err := c.Call("echo", half, &blob{}); err != nil {
		t.Fatalf("largest request: %v", err)
	}
	Handle(s, "double", func(m blob) (blob, error) { return blob{Data: m.Data + m.Data}, nil })
	if err := c.Call("double", half, &blob{}); !errors.As(err, &re) || !strings.Contains(err.Error(), "exceeds max") {
		t.Fatalf("oversized response: err = %v, want a RemoteError about the size", err)
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

// TestServerCloseDropsIdleConns: a peer that keeps its connection open
// and says nothing must not hold Close up (it used to wait on the conn's
// read loop until the peer went away).
func TestServerCloseDropsIdleConns(t *testing.T) {
	n := transport.NewMemNetwork(nil)
	s := startServer(t, n, "nn")
	c, err := Dial(n, "client", "nn")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Call("add", addArgs{A: 1, B: 2}, &addReply{}); err != nil {
		t.Fatal(err)
	}
	closed := make(chan struct{})
	go func() {
		s.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(time.Second):
		t.Fatal("Server.Close still waiting on an idle client connection after 1s")
	}
	if err := c.Call("add", addArgs{}, &addReply{}); err == nil {
		t.Fatal("call on a connection the server closed succeeded")
	}
}

// TestServerCloseFailsInFlightCall: a call whose handler is running when
// the server closes comes back as a transport error (so callers redial),
// not as a RemoteError and not as a hang.
func TestServerCloseFailsInFlightCall(t *testing.T) {
	n := transport.NewMemNetwork(nil)
	s := NewServer()
	entered, release := make(chan struct{}), make(chan struct{})
	Handle(s, "stall", func(a addArgs) (addReply, error) {
		close(entered)
		<-release
		return addReply{}, nil
	})
	l, err := n.Listen("nn")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(l)
	c, err := Dial(n, "client", "nn")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	done := make(chan error, 1)
	go func() { done <- c.Call("stall", addArgs{}, &addReply{}) }()
	<-entered
	closed := make(chan struct{})
	go func() {
		s.Close() // returns once the handler does
		close(closed)
	}()
	select {
	case err := <-done:
		var re *RemoteError
		if err == nil || errors.As(err, &re) {
			t.Fatalf("in-flight call: err = %v, want a transport error", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("in-flight call hung across Server.Close")
	}
	close(release)
	select {
	case <-closed:
	case <-time.After(2 * time.Second):
		t.Fatal("Server.Close hung after its last handler returned")
	}
}

// TestForeignProtocolRejected: a peer that does not start its frames
// with the codec version — a JSON-era namenode answers `{"seq":1}` — is
// refused with an error that names the mismatch, as a transport failure.
func TestForeignProtocolRejected(t *testing.T) {
	n := transport.NewMemNetwork(nil)
	l, err := n.Listen("old-nn")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		if fr, err := readFrame(conn); err == nil {
			bufpool.Put(fr)
			conn.Write(append([]byte{0, 0, 0, 9}, `{"seq":1}`...))
		}
	}()
	c, err := Dial(n, "client", "old-nn")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	err = c.Call("add", addArgs{}, &addReply{})
	var re *RemoteError
	if err == nil || errors.As(err, &re) || !strings.Contains(err.Error(), "codec version") {
		t.Fatalf("err = %v, want a transport error naming the codec version", err)
	}

	// The other direction: the server drops a connection that opens with JSON.
	startServer(t, n, "nn")
	conn, err := n.Dial("old-client", "nn")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.Write(append([]byte{0, 0, 0, 24}, `{"seq":1,"method":"add"}`...))
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := conn.Read(make([]byte, 1)); err == nil || transport.IsTimeout(err) {
		t.Fatalf("read after a JSON request: err = %v, want the server to have closed the connection", err)
	}
}

// TestNotAMessage: Call refuses a value it cannot put on the wire rather
// than falling back to some other encoding.
func TestNotAMessage(t *testing.T) {
	n := transport.NewMemNetwork(nil)
	startServer(t, n, "nn")
	c, _ := Dial(n, "client", "nn")
	defer c.Close()
	if err := c.Call("add", struct{ A, B int }{1, 2}, &addReply{}); err == nil || !strings.Contains(err.Error(), "not a wire message") {
		t.Fatalf("plain struct as request: err = %v", err)
	}
	if err := c.Call("add", addArgs{}, &struct{ Sum int }{}); err == nil || !strings.Contains(err.Error(), "not a pointer to a wire message") {
		t.Fatalf("plain struct as reply: err = %v", err)
	}
	if err := c.Call("add", addArgs{}, addReply{}); err == nil {
		t.Fatal("reply passed by value accepted")
	}
	var reply addReply
	if err := c.Call("add", addArgs{A: 2, B: 2}, &reply); err != nil || reply.Sum != 4 {
		t.Fatalf("call after refusals: %v, sum %d", err, reply.Sum)
	}
}

var echoReq = nnapi.AddBlockReq{Path: "/meta/w0/f1", Client: "meta-w0", Mode: proto.ModeSmarth, Previous: block.Block{ID: 7, Gen: 1, NumBytes: 1 << 20}}

func startEcho(tb testing.TB) *Client {
	n := transport.NewMemNetwork(nil)
	s := NewServer()
	Handle(s, "echo", func(r nnapi.AddBlockReq) (nnapi.AddBlockReq, error) { return r, nil })
	l, err := n.Listen("echo")
	if err != nil {
		tb.Fatal(err)
	}
	go s.Serve(l)
	tb.Cleanup(s.Close)
	c, err := Dial(n, "probe", "echo")
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(c.Close)
	return c
}

// TestAllocEcho is the envelope's allocation budget: an addBlock-sized
// echo over the in-memory transport, both ends counted. What remains is
// the boxed request and reply and the two strings each side keeps (the
// decoded call is recycled): it reads 6, and the budget leaves one.
func TestAllocEcho(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops puts under -race")
	}
	c := startEcho(t)
	a := testing.AllocsPerRun(2000, func() {
		var got nnapi.AddBlockReq
		if err := c.Call("echo", echoReq, &got); err != nil || got.Path != echoReq.Path {
			t.Fatalf("echo: %v, %+v", err, got)
		}
	})
	if a > 7 {
		t.Fatalf("echo round trip: %v allocs, budget 7", a)
	}
}

// BenchmarkEcho is one RPC round trip with an addBlock-sized message
// over the in-memory transport: the in-repo counterpart of the
// benchmark's rpc.echo probe.
func BenchmarkEcho(b *testing.B) {
	c := startEcho(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var got nnapi.AddBlockReq
		if err := c.Call("echo", echoReq, &got); err != nil || got.Path != echoReq.Path {
			b.Fatalf("echo: %v, %+v", err, got)
		}
	}
}
