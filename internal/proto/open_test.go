package proto

import (
	"errors"
	"io"
	"testing"
	"time"

	"repro/internal/block"
	"repro/internal/clock"
	"repro/internal/transport"
)

// serveOne accepts one conn on addr, reads the operation header and
// answers it with reply (nil: say nothing). It reports the header it saw
// and, once the dialer is done with the conn, whether the conn was
// closed from the other side.
func serveOne(t *testing.T, n *transport.MemNetwork, addr string, reply *Ack) (hdr chan any, closed chan bool) {
	t.Helper()
	l, err := n.Listen(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	hdr, closed = make(chan any, 1), make(chan bool, 1)
	go func() {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		pc := NewConn(conn)
		defer pc.Close()
		_, h, err := pc.ReadHeader()
		if err != nil {
			return
		}
		hdr <- h
		if reply != nil {
			if pc.WriteAck(reply) != nil {
				return
			}
		}
		_, err = pc.ReadPacket()
		closed <- errors.Is(err, io.EOF) || errors.Is(err, transport.ErrClosed)
	}()
	return hdr, closed
}

func testDialer(n transport.Network) *Dialer {
	return &Dialer{Network: n, Local: "client", Clock: clock.System, Progress: 100 * time.Millisecond}
}

func TestOpenReturnsArmedConnAndStatuses(t *testing.T) {
	n := transport.NewMemNetwork(nil)
	ok := &Ack{Kind: AckHeader, Seqno: -1, Statuses: []Status{StatusSuccess, StatusSuccess}}
	hdr, _ := serveOne(t, n, "dn1", ok)
	want := &WriteBlockHeader{Block: block.Block{ID: 7, Gen: 1}, Client: "client", Mode: ModeSmarth, BlockBytes: 1 << 20,
		Targets: []block.DatanodeInfo{{Name: "dn2", Addr: "dn2", Rack: "/r"}}}
	pc, statuses, err := testDialer(n).Open("dn1", OpWriteBlock, want)
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Close()
	if len(statuses) != 2 || statuses[0] != StatusSuccess || statuses[1] != StatusSuccess {
		t.Fatalf("statuses = %v", statuses)
	}
	if got := (<-hdr).(*WriteBlockHeader); got.Block != want.Block || got.Mode != want.Mode || len(got.Targets) != 1 {
		t.Fatalf("peer saw header %+v", got)
	}
	// The conn carries the Progress bound: the silent peer trips it.
	start := time.Now()
	if _, err := pc.ReadAck(); !transport.IsTimeout(err) {
		t.Fatalf("ReadAck on a silent peer: %v, want a timeout", err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("read deadline took %v, want about 100ms", d)
	}
}

// Every failure after the dial must close the conn: a leaked one pins the
// peer's handler until its own deadline.
func TestOpenFailuresCloseTheConn(t *testing.T) {
	rh := &ReadBlockHeader{Block: block.Block{ID: 9, Gen: 1}, Length: -1}
	cases := []struct {
		name    string
		reply   *Ack
		refused bool
	}{
		{"refused", &Ack{Kind: AckHeader, Seqno: -1, Statuses: []Status{StatusSuccess, StatusError}}, true},
		{"wrong ack kind", &Ack{Kind: AckData, Seqno: 0, Statuses: []Status{StatusSuccess}}, false},
		{"no setup ack", nil, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			n := transport.NewMemNetwork(nil)
			_, closed := serveOne(t, n, "dn1", tc.reply)
			pc, statuses, err := testDialer(n).Open("dn1", OpReadBlock, rh)
			if err == nil {
				pc.Close()
				t.Fatal("Open succeeded")
			}
			if pc != nil {
				t.Fatal("Open returned a conn with its error")
			}
			if got := errors.Is(err, ErrSetupRefused); got != tc.refused {
				t.Fatalf("err = %v, ErrSetupRefused = %v, want %v", err, got, tc.refused)
			}
			if tc.refused && Blame(statuses) != 1 {
				t.Fatalf("refusal statuses = %v, want the failure at index 1", statuses)
			}
			select {
			case c := <-closed:
				if !c {
					t.Fatal("peer's read ended without the conn being closed")
				}
			case <-time.After(2 * time.Second):
				t.Fatal("conn left open after a failed Open")
			}
		})
	}
}

func TestOpenBoundsTheDial(t *testing.T) {
	n := transport.NewMemNetwork(nil)
	if _, _, err := testDialer(n).Open("nobody", OpReadBlock, &ReadBlockHeader{}); err == nil {
		t.Fatal("Open to an address nobody listens on succeeded")
	}
	hung := hungNetwork{release: make(chan struct{})}
	defer close(hung.release)
	start := time.Now()
	_, _, err := testDialer(hung).Open("dn1", OpReadBlock, &ReadBlockHeader{})
	if !transport.IsTimeout(err) {
		t.Fatalf("hung dial: %v, want a timeout", err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("hung dial took %v, want about 100ms", d)
	}
}

// hungNetwork's dials block until release closes.
type hungNetwork struct{ release chan struct{} }

func (h hungNetwork) Listen(string) (transport.Listener, error) { return nil, errors.New("no") }
func (h hungNetwork) Dial(string, string) (transport.Conn, error) {
	<-h.release
	return nil, errors.New("released")
}
