package des

import (
	"container/heap"
	"fmt"
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

// driveDeep is drive at a depth past nearCap, so both tiers and the moves
// between them take part. Three bulk schedules run in a seeded order, each
// followed by a RunUntil: ascending (it fills near, then goes to far),
// descending (each event is earlier than all of a full near, so the latest
// moves to far) and a block of ties. Callbacks schedule up to two more
// events each on delays of 0–2 ms and call Stop now and then, and RunUntil
// over rising deadlines cuts the run mid-stream.
func driveDeep(e scheduler, seed int64) []firing {
	const budget = 2000
	rng := rand.New(rand.NewSource(seed))
	var log []firing
	scheduled, fired := 0, 0
	var spawn func(time.Duration)
	spawn = func(d time.Duration) {
		id := scheduled
		scheduled++
		e.Schedule(d, func() {
			fired++
			log = append(log, firing{id, e.Now()})
			for c := rng.Intn(3); c > 0 && scheduled < budget; c-- {
				spawn(time.Duration(rng.Intn(2000)) * time.Microsecond)
			}
			if rng.Intn(100) == 0 {
				e.Stop()
			}
		})
	}
	const step = 10 * time.Microsecond
	n := nearCap + 1 + rng.Intn(3*nearCap)
	bulk := []func(){
		func() { // ascending
			for i := 0; i < n; i++ {
				spawn(time.Duration(i) * step)
			}
		},
		func() { // descending
			for i := n; i > 0; i-- {
				spawn(time.Duration(i)*step - step/2)
			}
		},
		func() { // ties
			for i := 0; i < n; i++ {
				spawn(time.Duration(n/2) * step)
			}
		},
	}
	for _, k := range rng.Perm(len(bulk)) {
		bulk[k]()
		log = append(log, firing{-1, e.RunUntil(e.Now() + time.Duration(rng.Intn(n))*step)})
	}
	for d := 1; d <= 8; d++ {
		log = append(log, firing{-1, e.RunUntil(time.Duration(d) * 400 * time.Microsecond)})
	}
	for fired < scheduled {
		log = append(log, firing{-2, e.Run()})
	}
	return log
}

// The differential property at depth, more than nearCap events pending.
func TestQuickDeepMatchesReference(t *testing.T) {
	f := func(seed int64) bool {
		got, want := driveDeep(New(), seed), driveDeep(&refEngine{}, seed)
		if !reflect.DeepEqual(got, want) {
			t.Logf("seed %d: the deep schedule logs differently from the reference", seed)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
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

// pending counts the queued events in both tiers.
func (e *Engine) pending() int { return len(e.near) + len(e.far) }

// holdsCallback reports whether any slot of either tier's backing array,
// used or not, still references a callback.
func (e *Engine) holdsCallback() bool {
	for _, tier := range [][]event{e.near[:cap(e.near)], e.far[:cap(e.far)]} {
		for _, ev := range tier {
			if ev.fn != nil {
				return true
			}
		}
	}
	return false
}

// Reset after Stop with events still queued — the state a finished
// simulation leaves its engine in — gives an engine that cannot be told
// from a new one: the stale events never fire, their callbacks are not
// kept alive by the queue's backing arrays, and the clock, the sequence
// and the stop flag start over, so a driven schedule logs what it logs on
// New.
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
	if end := e.Run(); end != 3*time.Second || e.pending() != 7 {
		t.Fatalf("stopped at %v with %d events queued, want 3s and 7", end, e.pending())
	}

	e.Reset()
	if held := cap(e.near) + cap(e.far); e.Now() != 0 || e.Processed != 0 || e.seq != 0 || e.pending() != 0 || held < 10 {
		t.Fatalf("after Reset: now %v, processed %d, seq %d, %d queued, cap %d", e.Now(), e.Processed, e.seq, e.pending(), held)
	}
	if e.holdsCallback() {
		t.Fatal("a queue slot still holds a callback after Reset")
	}
	got, want := drive(e, 7), drive(New(), 7)
	if !reflect.DeepEqual(got, want) {
		t.Fatal("a driven schedule fires differently on a reset engine than on a new one")
	}
	if stale != 3 {
		t.Fatalf("%d stale events fired in all, want the 3 from before Reset", stale)
	}
}

// Reset with both tiers in use drops both, and a deep schedule then logs
// on the reset engine what it logs on the reference.
func TestResetWithBothTiersQueued(t *testing.T) {
	e := New()
	stale := 0
	for i := 3 * nearCap; i > 0; i-- {
		e.Schedule(time.Duration(i)*time.Millisecond, func() {
			if stale++; stale == nearCap/2 {
				e.Stop()
			}
		})
	}
	e.Run()
	if len(e.near) == 0 || len(e.far) == 0 {
		t.Fatalf("stopped with %d near and %d far events, want both tiers in use", len(e.near), len(e.far))
	}
	e.Reset()
	if e.pending() != 0 || e.holdsCallback() || cap(e.far) < 2*nearCap {
		t.Fatalf("after Reset: %d queued, callback held %v, far cap %d", e.pending(), e.holdsCallback(), cap(e.far))
	}
	if got, want := driveDeep(e, 11), driveDeep(&refEngine{}, 11); !reflect.DeepEqual(got, want) {
		t.Fatal("a deep schedule fires differently on a reset engine than on the reference")
	}
	if stale != nearCap/2 {
		t.Fatalf("%d stale events fired in all, want the %d from before Reset", stale, nearCap/2)
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

// BenchmarkSchedule times the engine in a steady state: depth events are
// queued throughout, and each op fires the earliest one, which schedules
// its successor at a delay of 1 to depth µs. So ns/op is one pop and one
// Schedule at that depth, whatever b.N is. At depth 16 every event stays
// in the near tier; at 4096 nearly all of them sit in the far heap. The
// queue is stirred for 4·depth events before the timer starts, so that
// the ascending fill has been replaced by the steady mix.
func BenchmarkSchedule(b *testing.B) {
	for _, depth := range []int{16, 4096} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			e := New()
			fired, stopAt := 0, 4*depth
			var fn func()
			fn = func() {
				if fired++; fired == stopAt {
					e.Stop()
				}
				e.Schedule(time.Duration(1+fired*7919%depth)*time.Microsecond, fn)
			}
			for i := 0; i < depth; i++ {
				e.Schedule(time.Duration(i)*time.Microsecond, fn)
			}
			e.Run()
			fired, stopAt = 0, b.N
			b.ReportAllocs()
			b.ResetTimer()
			e.Run()
			if fired != b.N {
				b.Fatalf("fired %d of %d events", fired, b.N)
			}
		})
	}
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
