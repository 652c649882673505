package faultnet

import (
	"io"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/transport"
)

func pair(t *testing.T, n *Network, client, server string) (transport.Conn, transport.Conn) {
	t.Helper()
	l, err := n.Listen(server)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	accepted := make(chan transport.Conn, 1)
	go func() {
		c, err := l.Accept()
		if err == nil {
			accepted <- c
		}
	}()
	c, err := n.Dial(client, server)
	if err != nil {
		t.Fatal(err)
	}
	srv := <-accepted
	t.Cleanup(func() { c.Close(); srv.Close() })
	return c, srv
}

func TestHealthyPassthrough(t *testing.T) {
	n := Wrap(transport.NewMemNetwork(nil))
	cli, srv := pair(t, n, "cli", "srv")
	if _, err := cli.Write([]byte("ping")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4)
	if _, err := io.ReadFull(srv, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "ping" {
		t.Fatalf("got %q", buf)
	}
}

func TestFreezeStallsPeerAndThawReleases(t *testing.T) {
	n := Wrap(transport.NewMemNetwork(nil))
	cli, srv := pair(t, n, "cli", "srv")

	n.Freeze("srv")
	echoed := make(chan struct{})
	go func() {
		buf := make([]byte, 4)
		if _, err := io.ReadFull(srv, buf); err == nil {
			close(echoed)
		}
	}()
	cli.Write([]byte("data"))
	select {
	case <-echoed:
		t.Fatal("frozen endpoint made progress")
	case <-time.After(50 * time.Millisecond):
	}

	// The healthy side's deadline fires even though nothing broke.
	cli.SetReadDeadline(time.Now().Add(50 * time.Millisecond))
	if _, err := cli.Read(make([]byte, 1)); !transport.IsTimeout(err) {
		t.Fatalf("read err = %v, want timeout", err)
	}

	n.Thaw("srv")
	select {
	case <-echoed:
	case <-time.After(2 * time.Second):
		t.Fatal("thawed endpoint still stalled")
	}
}

func TestDropAfterBlackholes(t *testing.T) {
	n := Wrap(transport.NewMemNetwork(nil))
	cli, srv := pair(t, n, "cli", "srv")

	n.SetLink("cli", "srv", Fault{DropAfter: 4})
	if _, err := cli.Write([]byte("abcdefgh")); err != nil {
		t.Fatal(err) // must report success despite the blackhole
	}
	buf := make([]byte, 4)
	if _, err := io.ReadFull(srv, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "abcd" {
		t.Fatalf("delivered %q, want %q", buf, "abcd")
	}
	srv.SetReadDeadline(time.Now().Add(50 * time.Millisecond))
	if _, err := srv.Read(make([]byte, 1)); !transport.IsTimeout(err) {
		t.Fatalf("read past blackhole err = %v, want timeout", err)
	}
}

func TestDialFaults(t *testing.T) {
	n := Wrap(transport.NewMemNetwork(nil))
	l, err := n.Listen("srv")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		for {
			if _, err := l.Accept(); err != nil {
				return
			}
		}
	}()

	n.SetLink("cli", "srv", Fault{DialHang: true})
	_, err = transport.DialTimeout(n, "cli", "srv", 50*time.Millisecond, clock.System)
	if !transport.IsTimeout(err) {
		t.Fatalf("hung dial err = %v, want timeout", err)
	}

	n.ClearLink("cli", "srv")
	if _, err := n.Dial("cli", "srv"); err != nil {
		t.Fatalf("dial after clear: %v", err)
	}
}

func TestCloseUnblocksGatedOps(t *testing.T) {
	n := Wrap(transport.NewMemNetwork(nil))
	cli, _ := pair(t, n, "cli", "srv")
	n.Freeze("cli")
	t.Cleanup(func() { n.Thaw("cli") })
	done := make(chan error, 1)
	go func() {
		_, err := cli.Write([]byte("x"))
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	cli.Close()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("write on closed conn returned nil")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Close did not unblock frozen write")
	}
}
