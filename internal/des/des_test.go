package des

import (
	"container/heap"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestScheduleOrder(t *testing.T) {
	e := New()
	var got []int
	e.Schedule(3*time.Second, func() { got = append(got, 3) })
	e.Schedule(1*time.Second, func() { got = append(got, 1) })
	e.Schedule(2*time.Second, func() { got = append(got, 2) })
	end := e.Run()
	if end != 3*time.Second {
		t.Fatalf("end time = %v, want 3s", end)
	}
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
}

func TestFIFOAtSameTime(t *testing.T) {
	e := New()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(time.Second, func() { got = append(got, i) })
	}
	e.Run()
	for i := 0; i < 10; i++ {
		if got[i] != i {
			t.Fatalf("same-time events fired out of scheduling order: %v", got)
		}
	}
}

func TestNestedScheduling(t *testing.T) {
	e := New()
	var times []time.Duration
	var tick func()
	tick = func() {
		times = append(times, e.Now())
		if len(times) < 5 {
			e.Schedule(time.Second, tick)
		}
	}
	e.Schedule(0, tick)
	e.Run()
	if len(times) != 5 {
		t.Fatalf("got %d ticks, want 5", len(times))
	}
	for i, at := range times {
		if at != time.Duration(i)*time.Second {
			t.Fatalf("tick %d at %v, want %v", i, at, time.Duration(i)*time.Second)
		}
	}
}

func TestRunUntil(t *testing.T) {
	e := New()
	count := 0
	for i := 1; i <= 10; i++ {
		e.Schedule(time.Duration(i)*time.Second, func() { count++ })
	}
	e.RunUntil(5 * time.Second)
	if count != 5 {
		t.Fatalf("fired %d events by t=5s, want 5", count)
	}
	if e.Now() != 5*time.Second {
		t.Fatalf("Now() = %v, want 5s", e.Now())
	}
	e.RunUntil(20 * time.Second)
	if count != 10 {
		t.Fatalf("fired %d events total, want 10", count)
	}
	if e.Now() != 20*time.Second {
		t.Fatalf("Now() advanced to %v, want deadline 20s", e.Now())
	}
}

func TestStop(t *testing.T) {
	e := New()
	count := 0
	for i := 0; i < 10; i++ {
		e.Schedule(time.Duration(i)*time.Second, func() {
			count++
			if count == 3 {
				e.Stop()
			}
		})
	}
	e.Run()
	if count != 3 {
		t.Fatalf("fired %d events, want 3 (stopped)", count)
	}
	// The rest stay queued: a second Run resumes where the first stopped.
	if end := e.Run(); count != 10 || end != 9*time.Second {
		t.Fatalf("after resuming: fired %d events, ended at %v; want 10 and 9s", count, end)
	}
}

func TestNegativeDelayClamped(t *testing.T) {
	e := New()
	e.Schedule(time.Second, func() {
		// From t=1s, a negative delay must fire "now", not in the past.
		e.Schedule(-5*time.Second, func() {
			if e.Now() != time.Second {
				t.Errorf("clamped event fired at %v, want 1s", e.Now())
			}
		})
	})
	e.Run()
}

// Property: for any set of delays, events fire in nondecreasing time order
// and the engine's final time equals the maximum delay.
func TestQuickOrdering(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		e := New()
		var fired []time.Duration
		for _, r := range raw {
			d := time.Duration(r) * time.Millisecond
			e.Schedule(d, func() { fired = append(fired, e.Now()) })
		}
		e.Run()
		if len(fired) != len(raw) {
			return false
		}
		if !sort.SliceIsSorted(fired, func(i, j int) bool { return fired[i] < fired[j] }) {
			return false
		}
		var max time.Duration
		for _, r := range raw {
			if d := time.Duration(r) * time.Millisecond; d > max {
				max = d
			}
		}
		return e.Now() == max
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// --- the reference: the container/heap engine this package had before PR 17 ---

type refEvent struct {
	at  time.Duration
	seq uint64
	fn  func()
}

type refQueue []*refEvent

func (q refQueue) Len() int { return len(q) }
func (q refQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q refQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *refQueue) Push(x any)   { *q = append(*q, x.(*refEvent)) }
func (q *refQueue) Pop() any {
	old := *q
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return e
}

type refEngine struct {
	now     time.Duration
	queue   refQueue
	seq     uint64
	stopped bool
}

func (e *refEngine) Now() time.Duration { return e.now }
func (e *refEngine) Stop()              { e.stopped = true }
func (e *refEngine) Run() time.Duration { return e.RunUntil(-1) }

func (e *refEngine) Schedule(delay time.Duration, fn func()) {
	if delay < 0 {
		delay = 0
	}
	heap.Push(&e.queue, &refEvent{at: e.now + delay, seq: e.seq, fn: fn})
	e.seq++
}

func (e *refEngine) RunUntil(deadline time.Duration) time.Duration {
	e.stopped = false
	for len(e.queue) > 0 && !e.stopped {
		next := e.queue[0]
		if deadline >= 0 && next.at > deadline {
			e.now = deadline
			return e.now
		}
		heap.Pop(&e.queue)
		e.now = next.at
		next.fn()
	}
	// !stopped is PR 17's fix, applied to both: a stopped RunUntil used to
	// jump to the deadline past events still queued.
	if deadline >= 0 && e.now < deadline && !e.stopped {
		e.now = deadline
	}
	return e.now
}

// scheduler is what the differential driver needs of either engine.
type scheduler interface {
	Now() time.Duration
	Schedule(time.Duration, func())
	Stop()
	Run() time.Duration
	RunUntil(time.Duration) time.Duration
}

// firing is one log line of a driven schedule: event id fired at a time,
// or (id < 0) a Run/RunUntil call returned that time.
type firing struct {
	id int
	at time.Duration
}

// drive runs a seeded random schedule: a burst of events on a handful of
// timestamps (delays of -1..3 ms, so ties are the rule and some delays
// clamp), callbacks that schedule up to two more events each and now and
// then call Stop, RunUntil over rising deadlines, then Run until every
// scheduled event has fired. The rng is drawn from inside the callbacks,
// so one out-of-order firing changes everything after it.
func drive(e scheduler, seed int64) []firing {
	const budget = 500
	rng := rand.New(rand.NewSource(seed))
	delay := func() time.Duration { return time.Duration(rng.Intn(5)-1) * time.Millisecond }
	var log []firing
	scheduled, fired := 0, 0
	var spawn func()
	spawn = func() {
		id := scheduled
		scheduled++
		e.Schedule(delay(), func() {
			fired++
			log = append(log, firing{id, e.Now()})
			for c := rng.Intn(3); c > 0 && scheduled < budget; c-- {
				spawn()
			}
			if rng.Intn(25) == 0 {
				e.Stop()
			}
		})
	}
	for i := 0; i < 40; i++ {
		spawn()
	}
	for d := 1; d <= 6; d++ {
		log = append(log, firing{-1, e.RunUntil(time.Duration(d) * 3 * time.Millisecond)})
	}
	for fired < scheduled {
		log = append(log, firing{-2, e.Run()})
	}
	return log
}

// Differential property: on any driven schedule the value-heap engine
// fires the same events at the same times in the same order as the
// container/heap reference, and Run/RunUntil return the same times.
func TestQuickMatchesReference(t *testing.T) {
	f := func(seed int64) bool {
		got, want := drive(New(), seed), drive(&refEngine{}, seed)
		if len(got) != len(want) {
			t.Logf("seed %d: %d log lines, reference has %d", seed, len(got), len(want))
			return false
		}
		for i := range want {
			if got[i] != want[i] {
				t.Logf("seed %d: line %d is %+v, reference has %+v", seed, i, got[i], want[i])
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// A reserved position is honoured however late the event is queued: the
// event queued last with the oldest seq fires first among its instant.
func TestAtSeqKeepsReservedPosition(t *testing.T) {
	e := New()
	var got []string
	early := e.ReserveSeq()
	e.At(time.Second, func() { got = append(got, "b") })
	e.At(time.Second, func() { got = append(got, "c") })
	e.AtSeq(time.Second, early, func() { got = append(got, "a") })
	e.At(time.Millisecond, func() { got = append(got, "first") })
	e.Run()
	if want := "first a b c"; strings.Join(got, " ") != want {
		t.Fatalf("order = %v, want %s", got, want)
	}
	if e.Processed != 4 {
		t.Fatalf("Processed = %d, want 4", e.Processed)
	}
}

// Reset after Stop with events still queued — the state a finished
// simulation leaves its engine in — gives an engine that cannot be told
// from a new one: the stale events never fire, their callbacks are not
// kept alive by the queue's backing array, and the clock, the sequence and
// the stop flag start over, so a driven schedule logs what it logs on New.
func TestResetAfterStopWithEventsQueued(t *testing.T) {
	e := New()
	stale := 0
	for i := 1; i <= 10; i++ {
		e.Schedule(time.Duration(i)*time.Second, func() {
			if stale++; stale == 3 {
				e.Stop()
			}
		})
	}
	if end := e.Run(); end != 3*time.Second || len(e.queue) != 7 {
		t.Fatalf("stopped at %v with %d events queued, want 3s and 7", end, len(e.queue))
	}

	e.Reset()
	if e.Now() != 0 || e.Processed != 0 || e.seq != 0 || len(e.queue) != 0 || cap(e.queue) < 10 {
		t.Fatalf("after Reset: now %v, processed %d, seq %d, %d queued, cap %d", e.Now(), e.Processed, e.seq, len(e.queue), cap(e.queue))
	}
	for i, ev := range e.queue[:cap(e.queue)] {
		if ev.fn != nil {
			t.Fatalf("queue slot %d still holds a callback after Reset", i)
		}
	}
	got, want := drive(e, 7), drive(New(), 7)
	if !reflect.DeepEqual(got, want) {
		t.Fatal("a driven schedule fires differently on a reset engine than on a new one")
	}
	if stale != 3 {
		t.Fatalf("%d stale events fired in all, want the 3 from before Reset", stale)
	}
}

// Budget: with the queue grown to its working size, scheduling and firing
// an event allocates nothing (the caller's callback is its own affair).
func TestScheduleAllocs(t *testing.T) {
	e := New()
	fn := func() {}
	round := func() {
		for i := 0; i < 64; i++ {
			e.Schedule(time.Duration(i%7)*time.Millisecond, fn)
		}
		e.Run()
	}
	round()
	if avg := testing.AllocsPerRun(100, round); avg != 0 {
		t.Fatalf("%v allocations per 64 Schedule+fire, want 0", avg)
	}
}

func BenchmarkSchedule(b *testing.B) {
	e := New()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.Schedule(time.Duration(i), func() {})
	}
	e.Run()
}

// BenchmarkEngineTimers has the shape of the benchmark's des probe
// (bench/layers.go): 64 self-rearming timers, 2^18 events per op.
func BenchmarkEngineTimers(b *testing.B) {
	const timers, events = 64, 1 << 18
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := New()
		fired, scheduled := 0, timers
		var tick func()
		tick = func() {
			fired++
			if scheduled < events {
				scheduled++
				e.Schedule(time.Duration(1+fired%7)*time.Millisecond, tick)
			}
		}
		for j := 0; j < timers; j++ {
			e.Schedule(time.Duration(j)*time.Microsecond, tick)
		}
		e.Run()
		if fired != events {
			b.Fatalf("fired %d of %d events", fired, events)
		}
	}
}
