package netsim

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/des"
)

// refServer is the plain rate server: every job is its own engine event,
// queued the moment it is enqueued, that hands the job its own tag.
// Server must fire the same callbacks at the same times in the same
// order, with the same tags.
type refServer struct {
	eng       *des.Engine
	rate      float64
	busyUntil time.Duration
}

func (s *refServer) SetRate(bps float64) { s.rate = bps }

func (s *refServer) enqueue(at time.Duration, j job) time.Duration {
	start := max(s.busyUntil, at, s.eng.Now())
	var dur time.Duration
	if s.rate > 0 {
		dur = time.Duration(float64(j.n) / s.rate * float64(time.Second))
	}
	s.busyUntil = start + dur
	if j.done != nil {
		s.eng.At(s.busyUntil, func() { j.done(j.tag) })
	}
	return s.busyUntil
}

// queue is what the tests below need of either server.
type queue interface {
	enqueue(at time.Duration, j job) time.Duration
	SetRate(bps float64)
}

// enq queues n bytes on q arriving at at; done, if not nil, fires when
// they have been served.
func enq(q queue, at time.Duration, n int64, done func()) time.Duration {
	j := job{n: n}
	if done != nil {
		j.done = func(int) { done() }
	}
	return q.enqueue(at, j)
}

func newQueues(eng *des.Engine, ref bool, rates ...float64) []queue {
	qs := make([]queue, len(rates))
	for i, r := range rates {
		if ref {
			qs[i] = &refServer{eng: eng, rate: r}
		} else {
			qs[i] = NewNetwork(eng).NewServer(fmt.Sprint("s", i), r)
		}
	}
	return qs
}

// both runs a scenario against the reference and against Server and
// returns the two firing logs ("name@time" lines).
func both(rates []float64, scenario func(eng *des.Engine, qs []queue, fired func(name string) func())) (ref, got string) {
	logs := make([]string, 2)
	for i, isRef := range []bool{true, false} {
		eng := des.New()
		var log []string
		fired := func(name string) func() {
			return func() { log = append(log, fmt.Sprintf("%s@%v", name, eng.Now())) }
		}
		scenario(eng, newQueues(eng, isRef, rates...), fired)
		eng.Run()
		logs[i] = strings.Join(log, " ")
	}
	return logs[0], logs[1]
}

// The reserved-seq rule. a2 is enqueued before b1 and both complete at
// 2s, so a2 fires first — although a2 only becomes its server's head (and
// only then enters the engine's queue) at 1s, long after b1 did. Taking
// seq at head insertion would fire b1 first.
func TestSameInstantFiresInEnqueueOrder(t *testing.T) {
	ref, got := both([]float64{1000, 1000}, func(_ *des.Engine, qs []queue, fired func(string) func()) {
		enq(qs[0], 0, 1000, fired("a1"))
		enq(qs[0], 0, 1000, fired("a2"))
		enq(qs[1], 0, 2000, fired("b1"))
		enq(qs[1], 0, 1000, fired("b2"))
		enq(qs[0], 0, 1000, fired("a3"))
	})
	if want := "a1@1s a2@2s b1@2s b2@3s a3@3s"; ref != want || got != want {
		t.Fatalf("fired\n  server:    %s\n  reference: %s\n  want:      %s", got, ref, want)
	}
}

func TestSetRateMidTrain(t *testing.T) {
	// Queued jobs keep the completion times they were given; the new rate
	// applies from the next arrival on, which still queues behind them.
	ref, got := both([]float64{1000}, func(eng *des.Engine, qs []queue, fired func(string) func()) {
		for i := 0; i < 4; i++ {
			enq(qs[0], 0, 1000, fired(fmt.Sprint("p", i)))
		}
		eng.Schedule(1500*time.Millisecond, func() {
			qs[0].SetRate(250)
			enq(qs[0], eng.Now(), 1000, fired("slow"))
			qs[0].SetRate(0)
			enq(qs[0], eng.Now(), 1<<30, fired("free"))
		})
	})
	if want := "p0@1s p1@2s p2@3s p3@4s slow@8s free@8s"; ref != want || got != want {
		t.Fatalf("fired\n  server:    %s\n  reference: %s\n  want:      %s", got, ref, want)
	}
}

func TestInfiniteRateTrain(t *testing.T) {
	// An infinite-rate server is still a queue: a burst completes in
	// arrival order at the instant it arrived, interleaved by Enqueue
	// order with whatever else completes then.
	ref, got := both([]float64{0, 1000}, func(eng *des.Engine, qs []queue, fired func(string) func()) {
		enq(qs[1], 0, 1000, fired("timed"))
		eng.Schedule(time.Second, func() {
			enq(qs[0], eng.Now(), 5, fired("i0"))
			enq(qs[0], eng.Now(), 5, fired("i1"))
			enq(qs[1], eng.Now(), 0, fired("zero"))
			enq(qs[0], eng.Now(), 5, fired("i2"))
		})
	})
	if want := "timed@1s i0@1s i1@1s zero@1s i2@1s"; ref != want || got != want {
		t.Fatalf("fired\n  server:    %s\n  reference: %s\n  want:      %s", got, ref, want)
	}
}

func TestEnqueueFromDoneCallback(t *testing.T) {
	// A done callback that enqueues on its own server: once behind a
	// backlog, once (from the last job) on a server that has just gone
	// idle.
	ref, got := both([]float64{1000}, func(eng *des.Engine, qs []queue, fired func(string) func()) {
		enq(qs[0], 0, 1000, func() {
			fired("a")()
			enq(qs[0], eng.Now(), 1000, func() {
				fired("a-child")()
				enq(qs[0], eng.Now(), 500, fired("grandchild"))
			})
		})
		enq(qs[0], 0, 1000, fired("b"))
	})
	if want := "a@1s b@2s a-child@3s grandchild@3.5s"; ref != want || got != want {
		t.Fatalf("fired\n  server:    %s\n  reference: %s\n  want:      %s", got, ref, want)
	}
}

// Differential property: random trains over a few servers (one of them
// infinite-rate, rates that make completions collide), with done
// callbacks that enqueue more work on random servers and change rates
// mid-train, fire identically on Server and on the reference, and
// enqueue returns the same finish times. Every job shares one done
// callback, as Deliver's packets share their caller's, and is told apart
// by its tag: a tag handed to the wrong job, or twice, shows in the log.
// Job sizes repeat (four of them), and now and then a rate change, to
// infinite at times, falls between two jobs of one size on one server,
// so a service time cached from the old rate would show. Mixed in with
// the jobs that arrive as they are enqueued are jobs enqueued ahead of
// their arrival, which is never before the server's previous one (a
// one-feeder server's jobs), and jobs with no done callback.
func TestQuickServerMatchesReference(t *testing.T) {
	rates := []float64{1000, 1000, 500, 0}
	f := func(seed int64) bool {
		ref, got := both(rates, func(eng *des.Engine, qs []queue, fired func(string) func()) {
			rng := rand.New(rand.NewSource(seed))
			jobs := 0
			last := make([]time.Duration, len(qs)) // latest arrival per server
			pending := make(map[int]bool)          // tags of jobs with a done not yet fired
			var enqueue func(i int, n int64)
			done := func(tag int) {
				if !pending[tag] {
					fired(fmt.Sprint("stray-tag-", tag))()
				}
				delete(pending, tag)
				fired(fmt.Sprint("j", tag))()
				for c := rng.Intn(3); c > 0 && jobs < 600; c-- {
					enqueue(rng.Intn(len(qs)), int64(rng.Intn(4))*500)
				}
				if rng.Intn(10) == 0 {
					qs[rng.Intn(3)].SetRate(float64(1+rng.Intn(4)) * 250)
				}
				if rng.Intn(8) == 0 && jobs < 600 {
					i, n := rng.Intn(3), int64(1+rng.Intn(3))*500
					enqueue(i, n)
					qs[i].SetRate(float64(rng.Intn(5)) * 250)
					enqueue(i, n)
				}
			}
			enqueue = func(i int, n int64) {
				j := job{n: n, tag: jobs}
				jobs++
				at := max(eng.Now(), last[i])
				if rng.Intn(3) == 0 {
					at += time.Duration(rng.Intn(4)) * 250 * time.Millisecond
				}
				last[i] = at
				if rng.Intn(4) > 0 {
					j.done = done
					pending[j.tag] = true
				}
				fired(fmt.Sprintf("j%d->%v", j.tag, qs[i].enqueue(at, j)))()
			}
			for i := 0; i < 60; i++ {
				enqueue(rng.Intn(len(qs)), int64(rng.Intn(4))*500)
			}
		})
		if ref != got {
			t.Logf("seed %d:\n  server:    %s\n  reference: %s", seed, got, ref)
		}
		return ref == got
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// trainNodes builds the longest path a packet can take: both cross-rack
// shapers between two racks.
func trainNodes(nw *Network) (a, b *Node) {
	a = nw.NewNode("a", "/r1", 125e6, 300e6)
	b = nw.NewNode("b", "/r2", 125e6, 300e6)
	a.SetCrossRackLimit(12.5e6)
	b.SetCrossRackLimit(12.5e6)
	return a, b
}

// Budget: once the server rings and the engine's queue have grown to
// their working size, a Deliver allocates nothing.
func TestDeliverAllocs(t *testing.T) {
	eng := des.New()
	nw := NewNetwork(eng)
	a, b := trainNodes(nw)
	c := nw.NewNode("c", "/r1", 125e6, 300e6)
	arrived := func(int) {}
	for _, tc := range []struct {
		name string
		dst  *Node
	}{{"same-rack", c}, {"cross-rack", b}} {
		burst := func() {
			for i := 0; i < 256; i++ {
				nw.Deliver(a, tc.dst, 64<<10, eng.Now()+time.Duration(i)*time.Microsecond, arrived, i)
			}
			eng.Run()
		}
		burst()
		if avg := testing.AllocsPerRun(20, burst); avg != 0 {
			t.Errorf("%s: %v allocations per 256 Deliver, want 0", tc.name, avg)
		}
	}
}

// BenchmarkServerTrain sends one block (1,024 packets of 64 KB) through
// production → egress → xout → xin → ingress → disk the way
// sim.launchPipeline does: the whole train produced and delivered up
// front, each packet's disk write timed when it clears the ingress.
func BenchmarkServerTrain(b *testing.B) {
	const packets, size = 1024, 64 << 10
	eng := des.New()
	nw := NewNetwork(eng)
	src, dst := trainNodes(nw)
	production := nw.NewServer("cpu", 400e6)
	stored := 0
	toDisk := func(int) {
		dst.Disk.Enqueue(eng.Now()+300*time.Microsecond, size)
		stored++
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		stored = 0
		for k := 0; k < packets; k++ {
			nw.Deliver(src, dst, size, production.Enqueue(eng.Now(), size), toDisk, k)
		}
		eng.Run()
		if stored != packets {
			b.Fatalf("%d of %d packets stored", stored, packets)
		}
	}
}

// Reset after a stopped run — packets still queued in the rings — leaves
// nothing of it behind: no ring holds a callback, and the same topology
// built again reuses the server records and delivers exactly as a new
// network does.
func TestResetAfterStoppedRun(t *testing.T) {
	const packets = 200
	// burst sends a train across the racks, stopping the engine at the
	// stopAt-th arrival (never, if 0), and returns the arrival times.
	burst := func(eng *des.Engine, nw *Network, stopAt int) (arrivals []time.Duration) {
		a, b := trainNodes(nw)
		for i := 0; i < packets; i++ {
			nw.Deliver(a, b, 64<<10, 0, func(int) {
				if arrivals = append(arrivals, eng.Now()); len(arrivals) == stopAt {
					eng.Stop()
				}
			}, i)
		}
		eng.Run()
		return arrivals
	}

	eng := des.New()
	nw := NewNetwork(eng)
	if got := burst(eng, nw, 50); len(got) != 50 {
		t.Fatalf("%d arrivals before the stop, want 50", len(got))
	}
	servers := len(nw.servers)

	eng.Reset()
	nw.Reset()
	if nw.Node("a") != nil {
		t.Error("a node survived Reset")
	}
	for _, s := range nw.servers {
		for _, j := range s.jobs {
			if j.done != nil {
				t.Fatalf("%v still holds a queued job's callback", s)
			}
		}
	}

	fresh := des.New()
	want := burst(fresh, NewNetwork(fresh), 0)
	if got := burst(eng, nw, 0); !reflect.DeepEqual(got, want) {
		t.Error("arrivals on the reset network differ from a new network's")
	}
	if len(nw.servers) != servers {
		t.Errorf("the second run made %d new server records, want the first run's reused", len(nw.servers)-servers)
	}
}
