package rpc

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/transport"
)

// settledGoroutines returns the goroutine count once it has stopped
// changing for a while (or after a second, whichever comes first).
func settledGoroutines() int {
	n, since := runtime.NumGoroutine(), time.Now()
	for start := since; time.Since(since) < 20*time.Millisecond && time.Since(start) < time.Second; time.Sleep(time.Millisecond) {
		if m := runtime.NumGoroutine(); m != n {
			n, since = m, time.Now()
		}
	}
	return n
}

// goroutinesFallTo waits for the goroutine count to be at most want and
// returns the count it last saw: want or less, or more after two seconds.
func goroutinesFallTo(want int) int {
	n := runtime.NumGoroutine()
	for start := time.Now(); n > want && time.Since(start) < 2*time.Second; n = runtime.NumGoroutine() {
		time.Sleep(time.Millisecond)
	}
	return n
}

// burst issues n concurrent "slow" calls (50 ms each) on c and returns
// how long the lot took.
func burst(t *testing.T, c *Client, n int) time.Duration {
	t.Helper()
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var reply addReply
			if err := c.Call("slow", addArgs{}, &reply); err != nil || reply.Sum != -1 {
				t.Errorf("slow call: %v, %+v", err, reply)
			}
		}()
	}
	wg.Wait()
	return time.Since(start)
}

// TestBurstRunsConcurrentlyAndParksFew: a connection's requests never
// queue behind each other — 64 slow calls at once take about as long as
// one — and when the burst has drained the connection keeps a constant
// number of handlers parked, not one per request it ever had in flight.
func TestBurstRunsConcurrentlyAndParksFew(t *testing.T) {
	n := transport.NewMemNetwork(nil)
	startServer(t, n, "nn")
	c, err := Dial(n, "client", "nn")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Call("add", addArgs{A: 1, B: 1}, &addReply{}); err != nil {
		t.Fatal(err)
	}
	oneParked := settledGoroutines() // the connection's fixed goroutines and one parked handler

	const calls = 64
	if took := burst(t, c, calls); took > calls*50*time.Millisecond/4 {
		t.Fatalf("%d concurrent 50 ms calls took %v: they ran behind each other", calls, took)
	}
	if got := goroutinesFallTo(oneParked + maxParked - 1); got > oneParked+maxParked-1 {
		t.Fatalf("%d goroutines after the burst drained, %d with one handler parked: the connection kept more than %d handlers",
			got, oneParked, maxParked)
	}
	// The parked handlers are the ones that serve what comes next.
	if took := burst(t, c, maxParked); took > 4*50*time.Millisecond {
		t.Fatalf("%d concurrent calls on parked handlers took %v", maxParked, took)
	}
}

// TestParkedHandlersEndWithTheirConnection: handlers parked between
// requests are gone once the peer disconnects, and once the server closes
// with the peer still connected.
func TestParkedHandlersEndWithTheirConnection(t *testing.T) {
	for _, end := range []string{"client closes", "server closes"} {
		t.Run(end, func(t *testing.T) {
			before := settledGoroutines()
			n := transport.NewMemNetwork(nil)
			s := startServer(t, n, "nn")
			c, err := Dial(n, "client", "nn")
			if err != nil {
				t.Fatal(err)
			}
			burst(t, c, 2*maxParked) // leaves maxParked handlers parked
			if end == "client closes" {
				c.Close()
				if got := goroutinesFallTo(before + 1); got > before+1 { // the accept loop is still there
					t.Fatalf("%d goroutines after the client closed, %d before it dialed", got, before)
				}
			}
			s.Close()
			c.Close()
			if got := goroutinesFallTo(before); got > before {
				t.Fatalf("%d goroutines after Server.Close, %d before the server started", got, before)
			}
		})
	}
}
