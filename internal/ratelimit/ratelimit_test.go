package ratelimit

import (
	"bytes"
	"io"
	"sync"
	"testing"
	"time"

	"repro/internal/clock"
)

// fakeClock is a manually-advanced clock for deterministic limiter tests.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
	// slept accumulates requested sleep durations; Sleep advances time.
	slept time.Duration
}

func newFakeClock() *fakeClock {
	return &fakeClock{now: time.Unix(0, 0)}
}

func (f *fakeClock) Now() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.now
}

func (f *fakeClock) Sleep(d time.Duration) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.now = f.now.Add(d)
	f.slept += d
}

func (f *fakeClock) After(d time.Duration) <-chan time.Time {
	ch := make(chan time.Time, 1)
	f.Sleep(d)
	ch <- f.Now()
	return ch
}

func (f *fakeClock) advance(d time.Duration) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.now = f.now.Add(d)
}

func TestBurstAdmitsImmediately(t *testing.T) {
	fc := newFakeClock()
	l := New(fc, 1000, 500) // 1000 B/s, 500 B burst
	WaitAll(500, l)
	if fc.slept != 0 {
		t.Fatalf("slept %v within burst, want 0", fc.slept)
	}
}

func TestRateEnforced(t *testing.T) {
	fc := newFakeClock()
	l := New(fc, 1000, 500)
	WaitAll(500, l) // drain burst
	WaitAll(1000, l)
	// 1000 bytes at 1000 B/s = 1 s wait.
	if fc.slept != time.Second {
		t.Fatalf("slept %v, want 1s", fc.slept)
	}
}

func TestRefill(t *testing.T) {
	fc := newFakeClock()
	l := New(fc, 1000, 1000)
	WaitAll(1000, l) // drain
	fc.advance(time.Second)
	WaitAll(1000, l) // fully refilled
	if fc.slept != 0 {
		t.Fatalf("slept %v after refill, want 0", fc.slept)
	}
}

func TestBurstCap(t *testing.T) {
	fc := newFakeClock()
	l := New(fc, 1000, 1000)
	fc.advance(time.Hour) // tokens must cap at burst, not accumulate
	WaitAll(1000, l)
	WaitAll(1000, l)
	if fc.slept != time.Second {
		t.Fatalf("slept %v, want 1s (burst capped)", fc.slept)
	}
}

func TestUnlimited(t *testing.T) {
	fc := newFakeClock()
	l := New(fc, 0, 0) // a rate <= 0 admits everything
	WaitAll(1<<30, l)
	if fc.slept != 0 {
		t.Fatalf("unlimited limiter slept %v", fc.slept)
	}
	WaitAll(1<<30, nil) // a nil limiter is skipped, not dereferenced
}

func TestLongRunRate(t *testing.T) {
	fc := newFakeClock()
	l := New(fc, 10_000, 1000)
	start := fc.Now()
	const total = 100_000
	for sent := 0; sent < total; sent += 1000 {
		WaitAll(1000, l)
	}
	elapsed := fc.Now().Sub(start).Seconds()
	rate := float64(total) / elapsed
	// One burst of slack is expected; the long-run rate must be within 5%.
	if rate < 9_500 || rate > 11_500 {
		t.Fatalf("long-run rate %.0f B/s, want ~10000", rate)
	}
}

func TestWriterEnforcesRate(t *testing.T) {
	fc := newFakeClock()
	l := New(fc, 1<<20, 64<<10) // 1 MiB/s, one-chunk burst
	var sink bytes.Buffer
	w := NewWriter(&sink, l)
	payload := make([]byte, 1<<20)
	n, err := w.Write(payload)
	if err != nil || n != len(payload) {
		t.Fatalf("Write = (%d, %v)", n, err)
	}
	if sink.Len() != len(payload) {
		t.Fatalf("sink got %d bytes, want %d", sink.Len(), len(payload))
	}
	// 1 MiB at 1 MiB/s minus the 64 KiB burst ≈ 0.9375 s.
	if fc.slept < 900*time.Millisecond || fc.slept > time.Second {
		t.Fatalf("slept %v, want ≈0.94s", fc.slept)
	}
}

func TestStackedLimiters(t *testing.T) {
	fc := newFakeClock()
	nic := New(fc, 2000, 100)
	rack := New(fc, 1000, 100) // tighter: dominates
	var sink bytes.Buffer
	w := NewWriter(&sink, nic, rack)
	if _, err := w.Write(make([]byte, 2100)); err != nil {
		t.Fatal(err)
	}
	// The 1000 B/s limiter dominates: ~2s total.
	if fc.slept < 1900*time.Millisecond || fc.slept > 2200*time.Millisecond {
		t.Fatalf("slept %v, want ≈2s (bottleneck limiter)", fc.slept)
	}
}

func TestWriterShortWriteError(t *testing.T) {
	fc := newFakeClock()
	l := New(fc, 0, 0)
	ew := &errWriter{limit: 10}
	w := NewWriter(ew, l)
	n, err := w.Write(make([]byte, 100))
	if err == nil {
		t.Fatal("expected error from underlying writer")
	}
	if n != 10 {
		t.Fatalf("n = %d, want 10", n)
	}
}

type errWriter struct{ limit int }

func (e *errWriter) Write(p []byte) (int, error) {
	if e.limit == 0 {
		return 0, io.ErrShortWrite
	}
	n := len(p)
	if n > e.limit {
		n = e.limit
	}
	e.limit -= n
	return n, io.ErrShortWrite
}

func TestRealClockSmoke(t *testing.T) {
	// A tiny real-time check: 64 KiB at 1 MiB/s with 32 KiB burst should
	// take roughly 31 ms. Generous bounds avoid flakes.
	l := New(clock.System, 1<<20, 32<<10)
	start := time.Now()
	WaitAll(64<<10, l)
	elapsed := time.Since(start)
	if elapsed < 15*time.Millisecond || elapsed > 500*time.Millisecond {
		t.Fatalf("elapsed %v, want ≈31ms", elapsed)
	}
}
