package datanode

import (
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/nnapi"
	"repro/internal/storage"
	"repro/internal/transport"
)

// waitLog is the system clock, recording the length of every wait armed
// on it.
type waitLog struct {
	mu    sync.Mutex
	waits []time.Duration
}

func (c *waitLog) Now() time.Time        { return time.Now() }
func (c *waitLog) Sleep(d time.Duration) { <-c.After(d) }
func (c *waitLog) After(d time.Duration) <-chan time.Time {
	c.mu.Lock()
	c.waits = append(c.waits, d)
	c.mu.Unlock()
	return time.After(d)
}

// TestNegativeDataTimeoutTakesDefault: no DataTimeout value turns the
// datanode's deadlines off; a negative one arms DefaultDataTimeout on
// the data-connection dialer and on the namenode session alike.
func TestNegativeDataTimeoutTakesDefault(t *testing.T) {
	clk := &waitLog{}
	dn, err := New(Options{Name: "dn1", Addr: "dn1", NamenodeAddr: "nn", DataTimeout: -1,
		Network: transport.NewMemNetwork(nil), Store: storage.NewMemStore(), Clock: clk})
	if err != nil {
		t.Fatal(err)
	}
	if dn.dialer.Progress != DefaultDataTimeout {
		t.Fatalf("dialer Progress = %v, want %v", dn.dialer.Progress, DefaultDataTimeout)
	}
	// Nothing listens at nn, so every attempt fails at its dial — which
	// the session bounds before it starts.
	if err := dn.nn.Call(nnapi.MethodRegister, nnapi.RegisterReq{Name: "dn1"}, &nnapi.RegisterResp{}); err == nil {
		t.Fatal("register reached a namenode that is not there")
	}
	dn.nn.Close()
	clk.mu.Lock()
	defer clk.mu.Unlock()
	if !slices.Contains(clk.waits, DefaultDataTimeout) {
		t.Fatalf("session armed waits %v, none of them DefaultDataTimeout (%v)", clk.waits, DefaultDataTimeout)
	}
}
