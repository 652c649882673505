package transport

import (
	"bytes"
	"io"
	"net"
	"testing"
	"time"
)

// startTCPEcho returns a TCP network with a listener whose accept loop
// hands each conn to serve on its own goroutine.
func startTCPEcho(t *testing.T, serve func(Conn)) (*TCPNetwork, string) {
	t.Helper()
	n := NewTCPNetwork()
	l, err := n.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go func() {
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			go serve(c)
		}
	}()
	return n, l.Addr()
}

// A read deadline expiring mid-frame — after a partial header has
// arrived but before the rest — must surface as a timeout, not hang
// and not report the partial bytes as a clean EOF.
func TestTCPReadDeadlineMidFrame(t *testing.T) {
	hold := make(chan struct{})
	defer close(hold)
	n, addr := startTCPEcho(t, func(c Conn) {
		c.Write([]byte{0xAA, 0xBB, 0xCC}) // 3 of 8 expected bytes
		<-hold                            // stall mid-frame, conn open
		c.Close()
	})
	c, err := n.Dial("client", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetReadDeadline(time.Now().Add(80 * time.Millisecond))
	buf := make([]byte, 8)
	nr, err := io.ReadFull(c, buf)
	if !IsTimeout(err) {
		t.Fatalf("mid-frame read err = %v (n=%d), want timeout", err, nr)
	}
	if nr != 3 {
		t.Fatalf("read %d bytes before the deadline, want the 3 that arrived", nr)
	}
}

// A write deadline must fire when the peer stops draining and the
// kernel buffers fill mid-stream.
func TestTCPWriteDeadlineBackpressure(t *testing.T) {
	hold := make(chan struct{})
	defer close(hold)
	n, addr := startTCPEcho(t, func(c Conn) {
		<-hold // never read: client writes back up in the socket buffers
		c.Close()
	})
	c, err := n.Dial("client", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetWriteDeadline(time.Now().Add(80 * time.Millisecond))
	chunk := make([]byte, 1<<20)
	var total int
	var werr error
	for i := 0; i < 64; i++ { // out-run the tuned 1 MB socket buffers
		var nw int
		nw, werr = c.Write(chunk)
		total += nw
		if werr != nil {
			break
		}
	}
	if !IsTimeout(werr) {
		t.Fatalf("write err = %v after %d bytes, want timeout", werr, total)
	}
}

// Peer close with data in flight is a half-close for the reader: every
// byte written before the close must still be readable, then EOF —
// identical semantics on the in-memory pipe and the TCP substrate.
func TestCloseDeliversBufferedDataParity(t *testing.T) {
	payload := make([]byte, 256<<10)
	for i := range payload {
		payload[i] = byte(i * 13)
	}
	check := func(t *testing.T, c Conn) {
		t.Helper()
		time.Sleep(50 * time.Millisecond) // let the close race the reads
		got, err := io.ReadAll(c)
		if err != nil {
			t.Fatalf("read after peer close: %v", err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatalf("read %d bytes after peer close, want %d intact", len(got), len(payload))
		}
		if _, err := c.Read(make([]byte, 1)); err != io.EOF {
			t.Fatalf("post-drain read err = %v, want io.EOF", err)
		}
	}

	t.Run("tcp", func(t *testing.T) {
		n, addr := startTCPEcho(t, func(c Conn) {
			c.Write(payload)
			c.Close()
		})
		c, err := n.Dial("client", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		check(t, c)
	})

	t.Run("mem", func(t *testing.T) {
		n := NewMemNetwork(nil)
		l, err := n.Listen("srv")
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		go func() {
			c, err := l.Accept()
			if err != nil {
				return
			}
			c.Write(payload)
			c.Close()
		}()
		c, err := n.Dial("cli", "srv")
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		check(t, c)
	})
}

// Timeout parity across substrates: an expired read deadline yields an
// IsTimeout error, and the conn stays usable — clearing the deadline
// and reading again succeeds once data arrives. The mem pipe's
// ErrTimeout and the TCP net.Error must be indistinguishable through
// the transport.IsTimeout lens the whole stack uses.
func TestReadDeadlineRecoveryParity(t *testing.T) {
	check := func(t *testing.T, c Conn, release chan<- struct{}) {
		t.Helper()
		c.SetReadDeadline(time.Now().Add(60 * time.Millisecond))
		_, err := c.Read(make([]byte, 4))
		if !IsTimeout(err) {
			t.Fatalf("read err = %v, want timeout", err)
		}
		c.SetReadDeadline(time.Time{}) // clear
		close(release)                 // now let the peer write
		buf := make([]byte, 4)
		if _, err := io.ReadFull(c, buf); err != nil {
			t.Fatalf("read after recovered timeout: %v", err)
		}
		if string(buf) != "pong" {
			t.Fatalf("read %q after recovered timeout, want %q", buf, "pong")
		}
	}

	t.Run("tcp", func(t *testing.T) {
		release := make(chan struct{})
		n, addr := startTCPEcho(t, func(c Conn) {
			<-release
			c.Write([]byte("pong"))
			c.Close()
		})
		c, err := n.Dial("client", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		check(t, c, release)
	})

	t.Run("mem", func(t *testing.T) {
		release := make(chan struct{})
		n := NewMemNetwork(nil)
		l, err := n.Listen("srv")
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		go func() {
			c, err := l.Accept()
			if err != nil {
				return
			}
			<-release
			c.Write([]byte("pong"))
			c.Close()
		}()
		c, err := n.Dial("cli", "srv")
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		check(t, c, release)
	})
}

// The tuned TCP conn advertises writev support: the transport's Conn
// must expose WriteBuffers so proto.Conn can gather a frame
// into one syscall, and the gathered bytes must arrive in order.
func TestTCPWriteBuffers(t *testing.T) {
	done := make(chan []byte, 1)
	n, addr := startTCPEcho(t, func(c Conn) {
		b, _ := io.ReadAll(c)
		done <- b
		c.Close()
	})
	c, err := n.Dial("client", addr)
	if err != nil {
		t.Fatal(err)
	}
	bw, ok := c.(interface {
		WriteBuffers(*net.Buffers) (int64, error)
	})
	if !ok {
		t.Fatalf("TCP dial returned %T without WriteBuffers", c)
	}
	vecs := net.Buffers{[]byte("writev "), []byte("keeps "), []byte("order")}
	want := "writev keeps order"
	nw, err := bw.WriteBuffers(&vecs)
	if err != nil || nw != int64(len(want)) {
		t.Fatalf("WriteBuffers = %d, %v; want %d, nil", nw, err, len(want))
	}
	c.Close()
	if got := string(<-done); got != want {
		t.Fatalf("gathered write arrived as %q, want %q", got, want)
	}
}
