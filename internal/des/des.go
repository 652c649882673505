// Package des implements a deterministic discrete-event simulation engine.
//
// The engine keeps a priority queue of timestamped events. Virtual time is
// a time.Duration measured from the start of the simulation. Events that
// share a timestamp fire in the order they were scheduled, which makes
// simulation runs fully reproducible for a given seed and schedule.
//
// Events are ordered by the key (at, seq), where seq is a counter taken
// when the event is scheduled. No two events share a seq, so the key is a
// strict total order and the firing sequence is a property of the
// schedule, not of the queue that holds it: the queue is free to be
// whatever is cheapest (DESIGN.md §15). Here it is two tiers of event
// values — a short sorted slice for the earliest events, a binary heap
// behind it for the rest — with no allocation per event and no interface
// boxing.
package des

import (
	"fmt"
	"time"
)

// event is a scheduled callback, stored by value in the queue.
type event struct {
	at  time.Duration
	seq uint64
	fn  func()
}

func (a *event) before(b *event) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// nearCap bounds the near tier. Every paper figure runs at a depth of at
// most 24 pending events, so the far tier is there for deep schedules only.
const nearCap = 32

// Engine is a single-threaded discrete-event simulator.
// It is not safe for concurrent use; all event callbacks run on the
// goroutine that calls Run.
type Engine struct {
	now time.Duration
	// The pending events in two tiers. near holds the earliest, at most
	// nearCap, sorted latest first: the next event is its last element.
	// far is a binary min-heap of the rest; every event in it is after
	// every event in near.
	near    []event
	far     []event
	seq     uint64
	stopped bool
	// Processed counts events that have fired.
	Processed uint64
}

// New returns an engine positioned at virtual time zero.
func New() *Engine {
	return &Engine{}
}

// Reset returns the engine to the state New leaves it in — virtual time
// zero, nothing queued, sequence and Processed restarted — but keeps both
// tiers' backing arrays, so a worker that runs simulation after simulation
// (sim.RunAll) grows them once. Events still queued (Stop leaves them
// behind) are dropped and their slots zeroed: no callback, and nothing it
// captured, outlives the run that scheduled it.
func (e *Engine) Reset() {
	clear(e.near)
	clear(e.far)
	*e = Engine{near: e.near[:0], far: e.far[:0]}
}

// Now returns the current virtual time.
func (e *Engine) Now() time.Duration { return e.now }

// Schedule queues fn to run after delay. A negative delay is an error in
// the caller; it is clamped to zero so time never runs backwards.
func (e *Engine) Schedule(delay time.Duration, fn func()) {
	if delay < 0 {
		delay = 0
	}
	e.At(e.now+delay, fn)
}

// At queues fn to run at absolute virtual time t. Times before the current
// time are clamped to now.
func (e *Engine) At(t time.Duration, fn func()) {
	e.AtSeq(t, e.ReserveSeq(), fn)
}

// ReserveSeq takes the tie-break position At would take now, for an event
// that AtSeq queues later. A FIFO of events whose times never decrease
// (netsim.Server) reserves each one's position on arrival and keeps only
// its head in the engine's queue: every later entry sorts after the head,
// so the global firing order is the one At would have produced.
func (e *Engine) ReserveSeq() uint64 {
	seq := e.seq
	e.seq++
	return seq
}

// AtSeq queues fn at time t (clamped to now) in the tie-break position
// seq, which must come from ReserveSeq and be used once.
func (e *Engine) AtSeq(t time.Duration, seq uint64, fn func()) {
	if fn == nil {
		panic("des: nil event callback")
	}
	if t < e.now {
		t = e.now
	}
	ev := event{at: t, seq: seq, fn: fn}
	if len(e.far) > 0 && !ev.before(&e.far[0]) {
		e.pushFar(ev)
		return
	}
	q := e.near
	if len(q) == nearCap {
		if q[0].before(&ev) {
			e.pushFar(ev)
			return
		}
		// Full: the latest near event moves to far, where it is the
		// earliest, and the events later than ev move up into its slot.
		e.pushFar(q[0])
		i := 0
		for i+1 < nearCap && ev.before(&q[i+1]) {
			q[i] = q[i+1]
			i++
		}
		q[i] = ev
		return
	}
	// Insert from the earliest end, shifting each event before ev one
	// slot toward it.
	q = append(q, ev)
	i := len(q) - 1
	for i > 0 && q[i-1].before(&ev) {
		q[i] = q[i-1]
		i--
	}
	q[i] = ev
	e.near = q
}

// pushFar adds ev to the far heap.
func (e *Engine) pushFar(ev event) {
	q := append(e.far, ev)
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !ev.before(&q[parent]) {
			break
		}
		q[i] = q[parent]
		i = parent
	}
	q[i] = ev
	e.far = q
}

// next returns the earliest pending event. The queue must not be empty.
func (e *Engine) next() *event {
	if n := len(e.near); n > 0 {
		return &e.near[n-1]
	}
	return &e.far[0]
}

// pop removes and returns the earliest event. The queue must not be empty.
func (e *Engine) pop() event {
	if n := len(e.near) - 1; n >= 0 {
		top := e.near[n]
		e.near[n] = event{} // drop the callback reference
		e.near = e.near[:n]
		return top
	}
	q := e.far
	top := q[0]
	n := len(q) - 1
	last := q[n]
	q[n] = event{}
	q = q[:n]
	e.far = q
	if n == 0 {
		return top
	}
	// Sift down: move the smaller child up into the hole until last fits.
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && q[c+1].before(&q[c]) {
			c++
		}
		if !q[c].before(&last) {
			break
		}
		q[i] = q[c]
		i = c
	}
	q[i] = last
	return top
}

// Stop makes Run return after the currently firing event completes.
func (e *Engine) Stop() { e.stopped = true }

// Run fires events in time order until the queue is empty or Stop is
// called. It returns the final virtual time.
func (e *Engine) Run() time.Duration {
	return e.RunUntil(-1)
}

// RunUntil fires events whose time is <= deadline (a deadline < 0 means
// run to exhaustion). Time advances to the deadline if events run out
// earlier and deadline >= 0; after Stop it stays at the last fired event,
// since earlier events may still be queued.
func (e *Engine) RunUntil(deadline time.Duration) time.Duration {
	e.stopped = false
	for len(e.near)+len(e.far) > 0 && !e.stopped {
		if at := e.next().at; deadline >= 0 && at > deadline {
			e.now = deadline
			return e.now
		}
		next := e.pop()
		if next.at < e.now {
			panic(fmt.Sprintf("des: time went backwards: %v -> %v", e.now, next.at))
		}
		e.now = next.at
		e.Processed++
		next.fn()
	}
	if deadline >= 0 && e.now < deadline && !e.stopped {
		e.now = deadline
	}
	return e.now
}
