package transport

import (
	"bytes"
	"errors"
	"io"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/clock"
)

func TestMemDialListen(t *testing.T) {
	n := NewMemNetwork(nil)
	l, err := n.Listen("dn1")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		c, err := l.Accept()
		if err != nil {
			t.Errorf("Accept: %v", err)
			return
		}
		defer c.Close()
		if c.LocalAddr() != "dn1" || c.RemoteAddr() != "client" {
			t.Errorf("accepted addrs = %s/%s", c.LocalAddr(), c.RemoteAddr())
		}
		buf := make([]byte, 5)
		if _, err := io.ReadFull(c, buf); err != nil {
			t.Errorf("read: %v", err)
			return
		}
		c.Write(bytes.ToUpper(buf))
	}()

	c, err := n.Dial("client", "dn1")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.LocalAddr() != "client" || c.RemoteAddr() != "dn1" {
		t.Fatalf("dialer addrs = %s/%s", c.LocalAddr(), c.RemoteAddr())
	}
	if _, err := c.Write([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	reply := make([]byte, 5)
	if _, err := io.ReadFull(c, reply); err != nil {
		t.Fatal(err)
	}
	if string(reply) != "HELLO" {
		t.Fatalf("reply = %q", reply)
	}
	wg.Wait()
}

func TestMemDialNoListener(t *testing.T) {
	n := NewMemNetwork(nil)
	if _, err := n.Dial("a", "nowhere"); err == nil {
		t.Fatal("dial to missing listener succeeded")
	}
}

func TestMemDuplicateListen(t *testing.T) {
	n := NewMemNetwork(nil)
	l, err := n.Listen("x")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.Listen("x"); err == nil {
		t.Fatal("duplicate listen succeeded")
	}
	l.Close()
	if _, err := n.Listen("x"); err != nil {
		t.Fatalf("re-listen after close: %v", err)
	}
}

func TestMemCloseGivesEOF(t *testing.T) {
	n := NewMemNetwork(nil)
	l, _ := n.Listen("srv")
	done := make(chan struct{})
	go func() {
		defer close(done)
		c, err := l.Accept()
		if err != nil {
			t.Errorf("accept: %v", err)
			return
		}
		data, err := io.ReadAll(c)
		if err != nil {
			t.Errorf("ReadAll: %v", err)
		}
		if string(data) != "bye" {
			t.Errorf("data = %q", data)
		}
	}()
	c, err := n.Dial("cli", "srv")
	if err != nil {
		t.Fatal(err)
	}
	c.Write([]byte("bye"))
	c.Close()
	<-done
}

func TestMemListenerCloseUnblocksAccept(t *testing.T) {
	n := NewMemNetwork(nil)
	l, _ := n.Listen("srv")
	errs := make(chan error, 1)
	go func() {
		_, err := l.Accept()
		errs <- err
	}()
	time.Sleep(10 * time.Millisecond)
	l.Close()
	select {
	case err := <-errs:
		if err == nil {
			t.Fatal("Accept returned nil error after Close")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Accept did not unblock after Close")
	}
}

func TestPartitionBreaksConns(t *testing.T) {
	n := NewMemNetwork(nil)
	l, _ := n.Listen("dn1")
	accepted := make(chan Conn, 1)
	go func() {
		c, err := l.Accept()
		if err == nil {
			accepted <- c
		}
	}()
	c, err := n.Dial("client", "dn1")
	if err != nil {
		t.Fatal(err)
	}
	srv := <-accepted

	n.Partition("dn1")

	if _, err := c.Write(make([]byte, 1<<20)); err == nil {
		t.Fatal("write to partitioned peer succeeded")
	}
	if _, err := srv.Read(make([]byte, 1)); !errors.Is(err, ErrClosed) {
		t.Fatalf("read on partitioned conn: err = %v, want ErrClosed", err)
	}
	if _, err := n.Dial("client", "dn1"); err == nil {
		t.Fatal("dial to partitioned node succeeded")
	}

	n.Heal("dn1")
	go func() { l.Accept() }()
	if _, err := n.Dial("client", "dn1"); err != nil {
		t.Fatalf("dial after heal: %v", err)
	}
}

// pacePolicy paces the links leaving src with pace; every other link is
// unshaped.
type pacePolicy struct {
	src  string
	pace func(n int)
}

func (p pacePolicy) Pacer(src, dst string) func(n int) {
	if src == p.src {
		return p.pace
	}
	return nil
}

func TestShapingLimitsThroughput(t *testing.T) {
	// A link that admits 4 MiB/s: 1 MiB should take ≈250 ms.
	n := NewMemNetwork(pacePolicy{src: "client", pace: func(n int) {
		time.Sleep(time.Duration(n) * time.Second / (4 << 20))
	}})
	l, _ := n.Listen("dn1")
	var got int64
	done := make(chan struct{})
	go func() {
		defer close(done)
		c, err := l.Accept()
		if err != nil {
			return
		}
		got, _ = io.Copy(io.Discard, c)
	}()
	c, err := n.Dial("client", "dn1")
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	payload := make([]byte, 1<<20)
	if _, err := c.Write(payload); err != nil {
		t.Fatal(err)
	}
	c.Close()
	<-done
	elapsed := time.Since(start)
	if got != 1<<20 {
		t.Fatalf("received %d bytes, want %d", got, 1<<20)
	}
	if elapsed < 180*time.Millisecond || elapsed > 800*time.Millisecond {
		t.Fatalf("transfer took %v, want ≈250ms", elapsed)
	}
}

// A shaped conn paces each write in chunks of at most 64 KB, before the
// chunk enters the ring; the link back stays unshaped.
func TestShapedWritePacesInChunks(t *testing.T) {
	var chunks []int
	var c Conn
	n := NewMemNetwork(pacePolicy{src: "client", pace: func(n int) {
		chunks = append(chunks, n)
		if c.(*memConn).writeBuf.n != (len(chunks)-1)*maxPaceChunk {
			t.Errorf("chunk %d paced after its bytes entered the ring", len(chunks))
		}
	}})
	l, _ := n.Listen("dn1")
	var err error
	if c, err = n.Dial("client", "dn1"); err != nil {
		t.Fatal(err)
	}
	peer, _ := l.Accept()
	const size = 3*maxPaceChunk + 100 // fits the ring unread
	if w, err := c.Write(make([]byte, size)); w != size || err != nil {
		t.Fatalf("Write = (%d, %v), want (%d, nil)", w, err, size)
	}
	if want := []int{maxPaceChunk, maxPaceChunk, maxPaceChunk, 100}; !reflect.DeepEqual(chunks, want) {
		t.Fatalf("paced chunks %v, want %v", chunks, want)
	}
	if got, _ := io.ReadFull(peer, make([]byte, size)); got != size {
		t.Fatalf("peer read %d bytes, want %d", got, size)
	}
	if peer.(*memConn).pace != nil {
		t.Fatal("the unshaped direction has a pacer")
	}
}

// A shaped write whose peer closes midway returns the bytes that entered
// the ring before the close, with the error.
func TestShapedWriteShortWriteError(t *testing.T) {
	var peer Conn
	calls := 0
	n := NewMemNetwork(pacePolicy{src: "client", pace: func(int) {
		if calls++; calls == 2 {
			peer.Close()
		}
	}})
	l, _ := n.Listen("dn1")
	c, err := n.Dial("client", "dn1")
	if err != nil {
		t.Fatal(err)
	}
	peer, _ = l.Accept()
	w, err := c.Write(make([]byte, 3*maxPaceChunk))
	if !errors.Is(err, ErrClosed) {
		t.Fatalf("Write err = %v, want ErrClosed", err)
	}
	if w != maxPaceChunk {
		t.Fatalf("Write n = %d, want %d (the chunk before the close)", w, maxPaceChunk)
	}
}

func TestPipeBufBackpressure(t *testing.T) {
	b := newPipeBuf(8, nil)
	wrote := make(chan struct{})
	go func() {
		b.Write(make([]byte, 16)) // must block halfway
		close(wrote)
	}()
	time.Sleep(10 * time.Millisecond)
	select {
	case <-wrote:
		t.Fatal("write of 16 into capacity-8 pipe returned before reads")
	default:
	}
	buf := make([]byte, 16)
	n := 0
	for n < 16 {
		m, err := b.Read(buf[n:])
		if err != nil {
			t.Fatal(err)
		}
		n += m
	}
	<-wrote
}

func TestPipeBufBreakUnblocksReader(t *testing.T) {
	b := newPipeBuf(4, nil)
	errs := make(chan error, 1)
	go func() {
		_, err := b.Read(make([]byte, 1)) // empty pipe: blocks
		errs <- err
	}()
	time.Sleep(10 * time.Millisecond)
	b.Break()
	select {
	case err := <-errs:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("read err = %v, want ErrClosed", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Break did not unblock reader")
	}
}

func TestPipeBufBreakUnblocksWriter(t *testing.T) {
	b := newPipeBuf(4, nil)
	errs := make(chan error, 1)
	go func() {
		_, err := b.Write(make([]byte, 100)) // full pipe: blocks
		errs <- err
	}()
	time.Sleep(10 * time.Millisecond)
	b.Break()
	select {
	case err := <-errs:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("write err = %v, want ErrClosed", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Break did not unblock writer")
	}
}

func TestPipeBufWriteAfterCloseWrite(t *testing.T) {
	b := newPipeBuf(16, nil)
	b.CloseWrite()
	if _, err := b.Write([]byte("x")); err != io.ErrClosedPipe {
		t.Fatalf("err = %v, want io.ErrClosedPipe", err)
	}
}

// TCP links are never shaped: a policy handed to a TCP network is refused
// loudly, not ignored.
func TestTCPNetworkTunedRefusesPolicy(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewTCPNetworkTuned accepted a LinkPolicy")
		}
	}()
	NewTCPNetworkTuned(pacePolicy{}, DefaultTCPTuning)
}

func TestTCPNetwork(t *testing.T) {
	n := NewTCPNetwork()
	l, err := n.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		c, err := l.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		io.Copy(c, c) // echo
	}()
	c, err := n.Dial("client", l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	msg := []byte("ping over tcp")
	if _, err := c.Write(msg); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(msg))
	if _, err := io.ReadFull(c, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("echo = %q, want %q", got, msg)
	}
}

func TestMemConnReadDeadline(t *testing.T) {
	n := NewMemNetwork(nil)
	l, _ := n.Listen("srv")
	go func() { l.Accept() }() // accept and hold silently
	c, err := n.Dial("cli", "srv")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetReadDeadline(time.Now().Add(50 * time.Millisecond))
	start := time.Now()
	_, err = c.Read(make([]byte, 1))
	if !IsTimeout(err) {
		t.Fatalf("read err = %v, want timeout", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("timeout took %v", elapsed)
	}
}

func TestMemConnWriteDeadline(t *testing.T) {
	n := NewMemNetwork(nil)
	l, _ := n.Listen("srv")
	go func() { l.Accept() }() // accepted but never read: writes back up
	c, err := n.Dial("cli", "srv")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetWriteDeadline(time.Now().Add(50 * time.Millisecond))
	_, err = c.Write(make([]byte, 1<<20)) // larger than buffer
	if !IsTimeout(err) {
		t.Fatalf("write err = %v, want timeout", err)
	}
}

func TestMemConnDeadlineClearedByZero(t *testing.T) {
	n := NewMemNetwork(nil)
	l, _ := n.Listen("srv")
	accepted := make(chan Conn, 1)
	go func() {
		c, err := l.Accept()
		if err == nil {
			accepted <- c
		}
	}()
	c, err := n.Dial("cli", "srv")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	srv := <-accepted
	c.SetReadDeadline(time.Now().Add(time.Hour))
	c.SetReadDeadline(time.Time{}) // clear
	go func() {
		time.Sleep(20 * time.Millisecond)
		srv.Write([]byte("x"))
	}()
	if _, err := c.Read(make([]byte, 1)); err != nil {
		t.Fatalf("read after clearing deadline: %v", err)
	}
}

func TestMemConnDeadlineDeliversBufferedData(t *testing.T) {
	n := NewMemNetwork(nil)
	l, _ := n.Listen("srv")
	accepted := make(chan Conn, 1)
	go func() {
		c, err := l.Accept()
		if err == nil {
			accepted <- c
		}
	}()
	c, err := n.Dial("cli", "srv")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	srv := <-accepted
	srv.Write([]byte("data"))
	// An already-expired deadline must not starve buffered data.
	c.SetReadDeadline(time.Now().Add(-time.Second))
	buf := make([]byte, 4)
	if _, err := io.ReadFull(c, buf); err != nil {
		t.Fatalf("read buffered data past deadline: %v", err)
	}
	if _, err := c.Read(make([]byte, 1)); !IsTimeout(err) {
		t.Fatalf("drained read err = %v, want timeout", err)
	}
}

func TestMemConnDeadlineVirtualClock(t *testing.T) {
	clk := clock.NewManual(time.Unix(0, 0))
	n := NewMemNetwork(nil)
	n.SetClock(clk)
	l, _ := n.Listen("srv")
	go func() { l.Accept() }()
	c, err := n.Dial("cli", "srv")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetReadDeadline(clk.Now().Add(time.Minute))
	errs := make(chan error, 1)
	go func() {
		_, err := c.Read(make([]byte, 1))
		errs <- err
	}()
	time.Sleep(20 * time.Millisecond) // let the read block
	select {
	case err := <-errs:
		t.Fatalf("read returned %v before virtual time advanced", err)
	default:
	}
	clk.Advance(2 * time.Minute)
	select {
	case err := <-errs:
		if !IsTimeout(err) {
			t.Fatalf("read err = %v, want timeout", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("virtual deadline did not fire after Advance")
	}
}

func TestMemConnCloseUnblocksLocalRead(t *testing.T) {
	n := NewMemNetwork(nil)
	l, _ := n.Listen("srv")
	go func() { l.Accept() }()
	c, err := n.Dial("cli", "srv")
	if err != nil {
		t.Fatal(err)
	}
	errs := make(chan error, 1)
	go func() {
		_, err := c.Read(make([]byte, 1))
		errs <- err
	}()
	time.Sleep(10 * time.Millisecond)
	c.Close()
	select {
	case err := <-errs:
		if err == nil {
			t.Fatal("read on closed conn returned nil error")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Close did not unblock local blocked read")
	}
}

func TestDialTimeout(t *testing.T) {
	n := NewMemNetwork(nil)
	l, _ := n.Listen("srv")
	// Fill the accept backlog so further dials block in Dial.
	for i := 0; i < 16; i++ {
		go n.Dial("filler", "srv")
	}
	time.Sleep(20 * time.Millisecond)
	_, err := DialTimeout(n, "cli", "srv", 50*time.Millisecond, clock.System)
	if !IsTimeout(err) {
		t.Fatalf("DialTimeout err = %v, want timeout", err)
	}
	l.Close()
}

func TestTCPConnDeadline(t *testing.T) {
	n := NewTCPNetwork()
	l, err := n.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		c, err := l.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		select {} // hold the conn open, never write
	}()
	c, err := n.Dial("client", l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetReadDeadline(time.Now().Add(50 * time.Millisecond))
	_, err = c.Read(make([]byte, 1))
	if !IsTimeout(err) {
		t.Fatalf("tcp read err = %v, want timeout", err)
	}
}
