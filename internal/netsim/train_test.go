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

// refServer is the rate server this package had before PR 17: every job
// is its own engine event, queued the moment it arrives. Server must fire
// the same callbacks at the same times in the same order.
type refServer struct {
	eng       *des.Engine
	rate      float64
	busyUntil time.Duration
}

func (s *refServer) SetRate(bps float64) { s.rate = bps }

func (s *refServer) Enqueue(n int64, done func()) {
	start := s.busyUntil
	if now := s.eng.Now(); start < now {
		start = now
	}
	var dur time.Duration
	if s.rate > 0 {
		dur = time.Duration(float64(n) / s.rate * float64(time.Second))
	}
	s.busyUntil = start + dur
	s.eng.At(s.busyUntil, done)
}

// queue is what the tests below need of either server.
type queue interface {
	Enqueue(n int64, done func())
	SetRate(bps float64)
}

func newQueues(eng *des.Engine, ref bool, rates ...float64) []queue {
	qs := make([]queue, len(rates))
	for i, r := range rates {
		if ref {
			qs[i] = &refServer{eng: eng, rate: r}
		} else {
			qs[i] = NewNetwork(eng, 0).NewServer(fmt.Sprint("s", i), r)
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
		qs[0].Enqueue(1000, fired("a1"))
		qs[0].Enqueue(1000, fired("a2"))
		qs[1].Enqueue(2000, fired("b1"))
		qs[1].Enqueue(1000, fired("b2"))
		qs[0].Enqueue(1000, fired("a3"))
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
			qs[0].Enqueue(1000, fired(fmt.Sprint("p", i)))
		}
		eng.Schedule(1500*time.Millisecond, func() {
			qs[0].SetRate(250)
			qs[0].Enqueue(1000, fired("slow"))
			qs[0].SetRate(0)
			qs[0].Enqueue(1<<30, fired("free"))
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
		qs[1].Enqueue(1000, fired("timed"))
		eng.Schedule(time.Second, func() {
			qs[0].Enqueue(5, fired("i0"))
			qs[0].Enqueue(5, fired("i1"))
			qs[1].Enqueue(0, fired("zero"))
			qs[0].Enqueue(5, fired("i2"))
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
	ref, got := both([]float64{1000}, func(_ *des.Engine, qs []queue, fired func(string) func()) {
		qs[0].Enqueue(1000, func() {
			fired("a")()
			qs[0].Enqueue(1000, func() {
				fired("a-child")()
				qs[0].Enqueue(500, fired("grandchild"))
			})
		})
		qs[0].Enqueue(1000, fired("b"))
	})
	if want := "a@1s b@2s a-child@3s grandchild@3.5s"; ref != want || got != want {
		t.Fatalf("fired\n  server:    %s\n  reference: %s\n  want:      %s", got, ref, want)
	}
}

// Differential property: random trains over a few servers (one of them
// infinite-rate, rates that make completions collide), with done
// callbacks that enqueue more work on random servers and change rates
// mid-train, fire identically on Server and on the reference.
func TestQuickServerMatchesReference(t *testing.T) {
	rates := []float64{1000, 1000, 500, 0}
	f := func(seed int64) bool {
		ref, got := both(rates, func(eng *des.Engine, qs []queue, fired func(string) func()) {
			rng := rand.New(rand.NewSource(seed))
			jobs := 0
			var enqueue func()
			enqueue = func() {
				name := fmt.Sprint("j", jobs)
				jobs++
				qs[rng.Intn(len(qs))].Enqueue(int64(rng.Intn(4))*500, func() {
					fired(name)()
					for c := rng.Intn(3); c > 0 && jobs < 600; c-- {
						enqueue()
					}
					if rng.Intn(10) == 0 {
						qs[rng.Intn(3)].SetRate(float64(1+rng.Intn(4)) * 250)
					}
				})
			}
			for i := 0; i < 60; i++ {
				enqueue()
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

// Budget: once the flight pool, the server rings and the engine's queue
// have grown to their working size, a Deliver allocates nothing.
func TestDeliverAllocs(t *testing.T) {
	eng := des.New()
	nw := NewNetwork(eng, 300*time.Microsecond)
	a, b := trainNodes(nw)
	c := nw.NewNode("c", "/r1", 125e6, 300e6)
	arrived := func() {}
	for _, tc := range []struct {
		name string
		dst  *Node
	}{{"same-rack", c}, {"cross-rack", b}} {
		burst := func() {
			for i := 0; i < 256; i++ {
				nw.Deliver(a, tc.dst, 64<<10, arrived)
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
// egress → xout → xin → ingress → disk, the whole train enqueued up front
// the way sim.launchPipeline feeds the client's production server.
func BenchmarkServerTrain(b *testing.B) {
	const packets, size = 1024, 64 << 10
	eng := des.New()
	nw := NewNetwork(eng, 300*time.Microsecond)
	src, dst := trainNodes(nw)
	stored := 0
	onDisk := func() { stored++ }
	toDisk := func() { dst.Disk.Enqueue(size, onDisk) }
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		stored = 0
		for k := 0; k < packets; k++ {
			nw.Deliver(src, dst, size, toDisk)
		}
		eng.Run()
		if stored != packets {
			b.Fatalf("%d of %d packets stored", stored, packets)
		}
	}
}

// Reset after a stopped run — jobs still queued in the rings, flights
// still out — leaves nothing of it behind: every record is free and holds
// no callback, and the same topology built again reuses the server
// records and delivers exactly as a new network does.
func TestResetAfterStoppedRun(t *testing.T) {
	const packets = 200
	// burst sends a train across the racks, stopping the engine at the
	// stopAt-th arrival (never, if 0), and returns the arrival times.
	burst := func(eng *des.Engine, nw *Network, stopAt int) (arrivals []time.Duration) {
		a, b := trainNodes(nw)
		for i := 0; i < packets; i++ {
			nw.Deliver(a, b, 64<<10, func() {
				if arrivals = append(arrivals, eng.Now()); len(arrivals) == stopAt {
					eng.Stop()
				}
			})
		}
		eng.Run()
		return arrivals
	}

	eng := des.New()
	nw := NewNetwork(eng, 300*time.Microsecond)
	if got := burst(eng, nw, 50); len(got) != 50 {
		t.Fatalf("%d arrivals before the stop, want 50", len(got))
	}
	servers := len(nw.servers)

	eng.Reset()
	nw.Reset(300 * time.Microsecond)
	if nw.Node("a") != nil {
		t.Error("a node survived Reset")
	}
	if want := 64 * len(nw.slabs); len(nw.free) != want {
		t.Errorf("%d of %d flight records free after Reset", len(nw.free), want)
	}
	for _, f := range nw.free {
		if f.arrived != nil {
			t.Fatal("a free flight record still holds its arrival callback")
		}
	}
	for _, s := range nw.servers {
		for _, j := range s.jobs {
			if j.done != nil {
				t.Fatalf("%v still holds a queued job's callback", s)
			}
		}
	}

	fresh := des.New()
	want := burst(fresh, NewNetwork(fresh, 300*time.Microsecond), 0)
	if got := burst(eng, nw, 0); !reflect.DeepEqual(got, want) {
		t.Error("arrivals on the reset network differ from a new network's")
	}
	if len(nw.servers) != servers {
		t.Errorf("the second run made %d new server records, want the first run's reused", len(nw.servers)-servers)
	}
}
