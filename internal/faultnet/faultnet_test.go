package faultnet

import (
	"io"
	"slices"
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
	n := Wrap(transport.NewMemNetwork(nil), 1)
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
	n := Wrap(transport.NewMemNetwork(nil), 1)
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

func TestLinkHangAndClear(t *testing.T) {
	n := Wrap(transport.NewMemNetwork(nil), 1)
	cli, srv := pair(t, n, "cli", "srv")

	n.SetLink("cli", "srv", Fault{Hang: true})
	wrote := make(chan struct{})
	go func() {
		cli.Write([]byte("x"))
		close(wrote)
	}()
	select {
	case <-wrote:
		t.Fatal("write through hung link returned")
	case <-time.After(50 * time.Millisecond):
	}
	n.ClearLink("cli", "srv")
	select {
	case <-wrote:
	case <-time.After(2 * time.Second):
		t.Fatal("cleared link still hung")
	}
	buf := make([]byte, 1)
	if _, err := io.ReadFull(srv, buf); err != nil {
		t.Fatal(err)
	}
}

func TestDropAfterBlackholes(t *testing.T) {
	n := Wrap(transport.NewMemNetwork(nil), 1)
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
	n := Wrap(transport.NewMemNetwork(nil), 1)
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

	n.SetLink("cli", "srv", Fault{DialFail: true})
	if _, err := n.Dial("cli", "srv"); err == nil {
		t.Fatal("DialFail dial succeeded")
	}

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

// sleepRecorder is a clock whose Sleep returns at once and records the
// delay it was asked for, so injected delays are read exactly instead
// of timed on the wall clock.
type sleepRecorder struct {
	clock.Real
	slept []time.Duration
}

func (r *sleepRecorder) Sleep(d time.Duration) { r.slept = append(r.slept, d) }

func TestDelayIsDeterministic(t *testing.T) {
	const delay, jitter = time.Millisecond, 5 * time.Millisecond
	sample := func(seed int64) []time.Duration {
		n := Wrap(transport.NewMemNetwork(nil), seed)
		rec := &sleepRecorder{}
		n.SetClock(rec)
		cli, srv := pair(t, n, "cli", "srv")
		go io.Copy(io.Discard, srv)
		n.SetLink("cli", "srv", Fault{Delay: delay, DelayJitter: jitter})
		for i := 0; i < 8; i++ {
			if _, err := cli.Write([]byte("x")); err != nil {
				t.Fatal(err)
			}
		}
		return rec.slept
	}
	a, b := sample(42), sample(42)
	if !slices.Equal(a, b) {
		t.Fatalf("same seed diverged: %v vs %v", a, b)
	}
	if len(a) != 8 {
		t.Fatalf("recorded %d delays, want 8: %v", len(a), a)
	}
	for _, d := range a {
		if d < delay || d >= delay+jitter {
			t.Fatalf("delay %v outside [%v, %v): %v", d, delay, delay+jitter, a)
		}
	}
	if c := sample(43); slices.Equal(a, c) {
		t.Fatalf("seeds 42 and 43 drew the same delays: %v", a)
	}
}

func TestWildcardLink(t *testing.T) {
	n := Wrap(transport.NewMemNetwork(nil), 1)
	cli, srv := pair(t, n, "cli", "srv")
	n.SetLink(Wildcard, "srv", Fault{DropAfter: -1})
	cli.Write([]byte("gone"))
	srv.SetReadDeadline(time.Now().Add(50 * time.Millisecond))
	if _, err := srv.Read(make([]byte, 1)); !transport.IsTimeout(err) {
		t.Fatalf("wildcard blackhole not applied: %v", err)
	}
}

func TestCloseUnblocksGatedOps(t *testing.T) {
	n := Wrap(transport.NewMemNetwork(nil), 1)
	cli, _ := pair(t, n, "cli", "srv")
	n.SetLink("cli", "srv", Fault{Hang: true})
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
		t.Fatal("Close did not unblock hung write")
	}
}
