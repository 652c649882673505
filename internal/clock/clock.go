// Package clock abstracts time so the same protocol code can run against
// the wall clock (real cluster mode) or a virtual clock driven by the
// discrete-event simulator (paper-scale experiment mode).
package clock

import (
	"sync"
	"time"
)

// Clock is the minimal time source the protocol stack depends on.
type Clock interface {
	// Now returns the current time on this clock.
	Now() time.Time
	// Sleep blocks the calling goroutine for d on this clock.
	Sleep(d time.Duration)
	// After returns a channel that delivers the clock's time after d.
	After(d time.Duration) <-chan time.Time
}

// Real is a Clock backed by the operating system clock.
type Real struct{}

// Now returns time.Now.
func (Real) Now() time.Time { return time.Now() }

// Sleep calls time.Sleep.
func (Real) Sleep(d time.Duration) { time.Sleep(d) }

// After calls time.After.
func (Real) After(d time.Duration) <-chan time.Time { return time.After(d) }

// System is the shared real clock.
var System Clock = Real{}

// Timer is a one-shot timeout on a Clock that its waiter releases when
// the wait ends. On the system clock the runtime timer behind it is
// recycled, so a wait that normally ends before its bound — an RPC reply,
// a dial — allocates nothing and leaves no timer pending for the rest of
// the bound; on any other clock it is After.
type Timer struct {
	C <-chan time.Time
	t *time.Timer
}

// timers holds stopped runtime timers whose channels are empty.
var timers sync.Pool

// NewTimer starts a timer that delivers on C once d has passed on clk.
func NewTimer(clk Clock, d time.Duration) Timer {
	if _, system := clk.(Real); !system {
		return Timer{C: clk.After(d)}
	}
	t, _ := timers.Get().(*time.Timer)
	if t == nil {
		t = time.NewTimer(d)
	} else {
		t.Reset(d)
	}
	return Timer{C: t.C, t: t}
}

// Stop releases the timer; call it exactly once, when the wait is over.
// Only a timer stopped before it fired is recycled: nothing was, or will
// be, sent on its channel.
func (t Timer) Stop() {
	if t.t != nil && t.t.Stop() {
		timers.Put(t.t)
	}
}

// Manual is a virtual clock advanced explicitly by tests (or by a
// pacing goroutine compressing virtual into real time). Sleep and After
// block until Advance moves the clock past their wake time, which lets
// deadline and timeout paths run deterministically without wall-clock
// waits.
type Manual struct {
	mu     sync.Mutex
	now    time.Time
	timers []manualTimer
}

type manualTimer struct {
	at time.Time
	ch chan time.Time
}

// NewManual returns a virtual clock starting at start.
func NewManual(start time.Time) *Manual {
	return &Manual{now: start}
}

// Now returns the current virtual time.
func (m *Manual) Now() time.Time {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.now
}

// After returns a channel that delivers the virtual time once the clock
// has been advanced by at least d. A non-positive d fires immediately.
func (m *Manual) After(d time.Duration) <-chan time.Time {
	ch := make(chan time.Time, 1)
	m.mu.Lock()
	defer m.mu.Unlock()
	if d <= 0 {
		ch <- m.now
		return ch
	}
	m.timers = append(m.timers, manualTimer{at: m.now.Add(d), ch: ch})
	return ch
}

// Sleep blocks until the clock advances by d.
func (m *Manual) Sleep(d time.Duration) { <-m.After(d) }

// Advance moves the clock forward by d and fires every timer whose wake
// time has been reached.
func (m *Manual) Advance(d time.Duration) {
	m.mu.Lock()
	m.now = m.now.Add(d)
	now := m.now
	var fire []manualTimer
	keep := m.timers[:0]
	for _, t := range m.timers {
		if t.at.After(now) {
			keep = append(keep, t)
		} else {
			fire = append(fire, t)
		}
	}
	m.timers = keep
	m.mu.Unlock()
	for _, t := range fire {
		t.ch <- now // buffered; never blocks
	}
}
