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
// whatever is cheapest (DESIGN.md §15). Here it is a 4-ary heap of event
// values — no allocation per event, no interface boxing.
package des

import (
	"fmt"
	"time"
)

// event is a scheduled callback, stored by value in the heap.
type event struct {
	at  time.Duration
	seq uint64
	fn  func()
}

func (a *event) before(b *event) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// Engine is a single-threaded discrete-event simulator.
// It is not safe for concurrent use; all event callbacks run on the
// goroutine that calls Run.
type Engine struct {
	now     time.Duration
	queue   []event // 4-ary min-heap on (at, seq): children of i are 4i+1..4i+4
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
// zero, nothing queued, sequence and Processed restarted — but keeps the
// queue's backing array, so a worker that runs simulation after simulation
// (sim.RunAll) grows the heap once. Events still queued (Stop leaves them
// behind) are dropped and their slots zeroed: no callback, and nothing it
// captured, outlives the run that scheduled it.
func (e *Engine) Reset() {
	clear(e.queue)
	*e = Engine{queue: e.queue[:0]}
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
	// Sift up: move parents down into the hole until ev fits.
	q := append(e.queue, ev)
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 4
		if !ev.before(&q[parent]) {
			break
		}
		q[i] = q[parent]
		i = parent
	}
	q[i] = ev
	e.queue = q
}

// pop removes and returns the earliest event. The queue must not be empty.
func (e *Engine) pop() event {
	q := e.queue
	top := q[0]
	n := len(q) - 1
	last := q[n]
	q[n] = event{} // drop the callback reference
	q = q[:n]
	e.queue = q
	if n == 0 {
		return top
	}
	// Sift down: move the smallest child up into the hole until last fits.
	i := 0
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		end := first + 4
		if end > n {
			end = n
		}
		min := first
		for c := first + 1; c < end; c++ {
			if q[c].before(&q[min]) {
				min = c
			}
		}
		if !q[min].before(&last) {
			break
		}
		q[i] = q[min]
		i = min
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
	for len(e.queue) > 0 && !e.stopped {
		if at := e.queue[0].at; deadline >= 0 && at > deadline {
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
