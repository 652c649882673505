package cluster

import (
	"math"
	"sync"
	"testing"
	"time"
)

// sleepClock is a manually advanced clock that records how long the
// shaper asked to sleep; Sleep advances time by what it records.
type sleepClock struct {
	mu    sync.Mutex
	now   time.Time
	slept time.Duration
}

func newSleepClock() *sleepClock { return &sleepClock{now: time.Unix(0, 0)} }

func (c *sleepClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *sleepClock) Sleep(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(d)
	c.slept += d
}

func (c *sleepClock) After(d time.Duration) <-chan time.Time {
	c.Sleep(d)
	ch := make(chan time.Time, 1)
	ch <- c.Now()
	return ch
}

func (c *sleepClock) advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(d)
}

// egressPacer shapes node "a" at bps and returns the pacer of a→b (b is
// unknown to the shaper, so only a's egress bucket applies).
func egressPacer(t *testing.T, clk *sleepClock, bps float64) func(int) {
	t.Helper()
	s := NewShaper(clk)
	s.SetNode("a", "/rack-a", bps)
	pace := s.Pacer("a", "b")
	if pace == nil {
		t.Fatal("shaped link has no pacer")
	}
	return pace
}

// A bucket's burst is 5 ms of its rate, never below 16 KiB: that much is
// admitted at once, and the next byte waits.
func TestShaperBurstAdmitsImmediately(t *testing.T) {
	for _, c := range []struct {
		bps   float64
		burst int
	}{
		{1 << 20, 16 << 10},  // 5 ms is 5 KiB: the floor holds
		{200 << 20, 1 << 20}, // 5 ms of 200 MiB/s
	} {
		clk := newSleepClock()
		pace := egressPacer(t, clk, c.bps)
		pace(c.burst)
		if clk.slept != 0 {
			t.Fatalf("%.0f B/s: slept %v within the %d B burst, want 0", c.bps, clk.slept, c.burst)
		}
		pace(1)
		if clk.slept == 0 {
			t.Fatalf("%.0f B/s: a byte past the %d B burst did not wait", c.bps, c.burst)
		}
	}
}

func TestShaperRateEnforced(t *testing.T) {
	clk := newSleepClock()
	pace := egressPacer(t, clk, 1<<20)
	pace(16 << 10) // drain the burst
	pace(1 << 20)
	if clk.slept != time.Second {
		t.Fatalf("slept %v for 1 MiB at 1 MiB/s, want 1s", clk.slept)
	}
}

func TestShaperRefill(t *testing.T) {
	clk := newSleepClock()
	pace := egressPacer(t, clk, 1<<20)
	pace(16 << 10)                // drain
	clk.advance(time.Second / 64) // 16 KiB at 1 MiB/s
	pace(16 << 10)                // fully refilled
	if clk.slept != 0 {
		t.Fatalf("slept %v after refill, want 0", clk.slept)
	}
}

func TestShaperBurstCap(t *testing.T) {
	clk := newSleepClock()
	pace := egressPacer(t, clk, 1<<20)
	clk.advance(time.Hour) // tokens must cap at the burst, not accumulate
	pace(16 << 10)
	pace(1 << 20)
	if clk.slept != time.Second {
		t.Fatalf("slept %v, want 1s (burst capped)", clk.slept)
	}
}

func TestShaperLongRunRate(t *testing.T) {
	clk := newSleepClock()
	const bps = 1 << 20
	pace := egressPacer(t, clk, bps)
	start := clk.Now()
	const chunk, total = 64 << 10, 100 * 64 << 10
	for sent := 0; sent < total; sent += chunk {
		pace(chunk)
	}
	rate := total / clk.Now().Sub(start).Seconds()
	// One burst of slack is expected; the long-run rate must be within 5 %.
	if math.Abs(rate-bps) > 0.05*bps {
		t.Fatalf("long-run rate %.0f B/s, want ≈%d", rate, bps)
	}
}

// Stacked buckets act in parallel: a write waits for the slowest bucket,
// not for the sum of every bucket's wait.
func TestShaperStackedBucketsWaitLongest(t *testing.T) {
	clk := newSleepClock()
	s := NewShaper(clk)
	s.SetNode("a", "/rack-a", 2<<20)  // NIC: 0.5 s for 1 MiB
	s.SetCrossRackLimit("a", 1<<20)   // cross-rack: 1 s for 1 MiB
	s.SetNode("b", "/rack-b", 0)      // unshaped NIC, other rack
	s.Pacer("a", "b")(16<<10 + 1<<20) // both bursts are 16 KiB
	if clk.slept != time.Second {
		t.Fatalf("slept %v, want 1s (the cross-rack bucket's wait, not the 1.5s sum)", clk.slept)
	}
}

// A link no bucket applies to has no pacer, so its conns write their
// rings directly.
func TestShaperUnshapedLinkHasNoPacer(t *testing.T) {
	s := NewShaper(newSleepClock())
	if s.Pacer("x", "y") != nil {
		t.Fatal("unknown endpoints got a pacer")
	}
	s.SetNode("a", "/rack-a", 0) // a rate of 0 leaves the NIC unshaped
	s.SetNode("b", "/rack-a", 0)
	s.SetCrossRackLimit("a", 1<<20) // same rack: not applied
	if s.Pacer("a", "b") != nil {
		t.Fatal("same-rack link with unshaped NICs got a pacer")
	}
	s.SetNode("b", "/rack-b", 0)
	if s.Pacer("a", "b") == nil {
		t.Fatal("cross-rack link got no pacer")
	}
	s.SetCrossRackLimit("a", 0) // a rate of 0 removes the throttle
	if s.Pacer("a", "b") != nil {
		t.Fatal("removed cross-rack throttle still paces")
	}
}

func TestShaperRealClockSmoke(t *testing.T) {
	// 64 KiB at 1 MiB/s past a 16 KiB burst waits ≈47 ms. Generous
	// bounds avoid flakes.
	s := NewShaper(nil)
	s.SetNode("a", "/rack-a", 1<<20)
	start := time.Now()
	s.Pacer("a", "b")(64 << 10)
	if elapsed := time.Since(start); elapsed < 25*time.Millisecond || elapsed > 500*time.Millisecond {
		t.Fatalf("elapsed %v, want ≈47ms", elapsed)
	}
}
