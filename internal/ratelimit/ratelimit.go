// Package ratelimit provides a token-bucket byte-rate limiter and a
// rate-limited writer wrapper (a link is shaped where its bytes are
// sent). In the real-cluster substrate it plays the role that the Linux
// `tc` utility plays in the paper's EC2 experiments: shaping the
// ingress/egress bandwidth of a node or the bandwidth between racks.
package ratelimit

import (
	"io"
	"sync"
	"time"

	"repro/internal/clock"
)

// Limiter is a token-bucket limiter over bytes. The zero value is
// unlimited; construct with New for a working limiter.
type Limiter struct {
	mu     sync.Mutex
	clk    clock.Clock
	rate   float64 // bytes per second; <= 0 means unlimited
	burst  float64 // bucket capacity in bytes
	tokens float64
	last   time.Time
}

// New returns a limiter that admits rate bytes/second with the given
// burst capacity. A rate <= 0 means unlimited. A burst <= 0 defaults to
// one second's worth of tokens (or 64 KiB if that is larger).
func New(clk clock.Clock, bytesPerSecond float64, burst float64) *Limiter {
	if clk == nil {
		clk = clock.System
	}
	if burst <= 0 {
		burst = bytesPerSecond
		if burst < 64<<10 {
			burst = 64 << 10
		}
	}
	return &Limiter{
		clk:    clk,
		rate:   bytesPerSecond,
		burst:  burst,
		tokens: burst,
		last:   clk.Now(),
	}
}

// advanceLocked refills tokens according to elapsed time.
func (l *Limiter) advanceLocked() {
	now := l.clk.Now()
	if l.rate > 0 {
		l.tokens += now.Sub(l.last).Seconds() * l.rate
		if l.tokens > l.burst {
			l.tokens = l.burst
		}
	}
	l.last = now
}

// reserveLocked debits n tokens and returns how long the caller must wait
// for the debit to be covered.
func (l *Limiter) reserveLocked(n int) time.Duration {
	l.advanceLocked()
	if l.rate <= 0 {
		return 0
	}
	l.tokens -= float64(n)
	if l.tokens >= 0 {
		return 0
	}
	return time.Duration(-l.tokens / l.rate * float64(time.Second))
}

// WaitAll reserves n bytes on every limiter simultaneously and sleeps for
// the longest of the required waits. Waiting on each limiter in turn
// would double-count delay (waiting on the first bucket does not admit
// bytes through the second any sooner); the constraints act in parallel,
// so the correct wait is the maximum. Nil limiters are skipped. Requests
// larger than the burst are admitted in one reservation (the wait simply
// extends past one bucket's worth), which preserves the long-run rate.
func WaitAll(n int, lims ...*Limiter) {
	if n <= 0 {
		return
	}
	var max time.Duration
	var clk clock.Clock
	for _, l := range lims {
		if l == nil {
			continue
		}
		l.mu.Lock()
		w := l.reserveLocked(n)
		l.mu.Unlock()
		if w > max {
			max = w
			clk = l.clk
		}
	}
	if max > 0 {
		clk.Sleep(max)
	}
}

// Writer wraps w so writes drain the limiter before hitting w.
type Writer struct {
	w    io.Writer
	lims []*Limiter
}

// NewWriter returns a rate-limited writer. Nil limiters are ignored.
func NewWriter(w io.Writer, lims ...*Limiter) *Writer {
	return &Writer{w: w, lims: lims}
}

// Limited reports whether any limiter is attached. An unlimited writer
// is a pass-through, which callers exploit to take gather-write fast
// paths that bypass the chunking loop.
func (w *Writer) Limited() bool {
	for _, l := range w.lims {
		if l != nil {
			return true
		}
	}
	return false
}

func (w *Writer) Write(p []byte) (int, error) {
	written := 0
	for written < len(p) {
		chunk := p[written:]
		if len(chunk) > 64<<10 {
			chunk = chunk[:64<<10]
		}
		WaitAll(len(chunk), w.lims...)
		n, err := w.w.Write(chunk)
		written += n
		if err != nil {
			return written, err
		}
	}
	return written, nil
}
