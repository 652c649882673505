package netsim

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/des"
)

func seconds(d time.Duration) float64 { return d.Seconds() }

func TestServerSerialization(t *testing.T) {
	eng := des.New()
	s := NewNetwork(eng).NewServer("s", 1000) // 1000 B/s
	var done []time.Duration
	enq(s, 0, 500, func() { done = append(done, eng.Now()) })
	enq(s, 0, 500, func() { done = append(done, eng.Now()) })
	eng.Run()
	if len(done) != 2 {
		t.Fatalf("%d jobs completed, want 2", len(done))
	}
	if math.Abs(seconds(done[0])-0.5) > 1e-9 || math.Abs(seconds(done[1])-1.0) > 1e-9 {
		t.Fatalf("completions = %v, want [0.5s, 1s]", done)
	}
	if s.Bytes != 1000 {
		t.Fatalf("Bytes = %d, want 1000", s.Bytes)
	}
}

func TestServerWorkConserving(t *testing.T) {
	eng := des.New()
	s := NewNetwork(eng).NewServer("s", 1000)
	var second time.Duration
	enq(s, 0, 1000, func() {
		// Enqueue the next job later, leaving the server idle for 1s.
		eng.Schedule(time.Second, func() {
			enq(s, eng.Now(), 1000, func() { second = eng.Now() })
		})
	})
	eng.Run()
	if math.Abs(seconds(second)-3.0) > 1e-9 {
		t.Fatalf("second job done at %v, want 3s (1s busy + 1s idle + 1s busy)", second)
	}
}

func TestInfiniteRate(t *testing.T) {
	eng := des.New()
	s := NewNetwork(eng).NewServer("s", 0)
	var at time.Duration = -1
	enq(s, 0, 1<<40, func() { at = eng.Now() })
	eng.Run()
	if at != 0 {
		t.Fatalf("infinite-rate job done at %v, want 0", at)
	}
}

func TestDeliverSameRack(t *testing.T) {
	eng := des.New()
	nw := NewNetwork(eng)
	a := nw.NewNode("a", "/r1", 1000, 0)
	b := nw.NewNode("b", "/r1", 1000, 0)
	var at time.Duration
	nw.Deliver(a, b, 500, 2*time.Second, func(int) { at = eng.Now() }, 0)
	eng.Run()
	// Reaches a's egress at 2s, then 0.5s egress + 0.5s ingress
	// (store-and-forward stages); latency is the caller's to add.
	want := 3 * time.Second
	if at != want {
		t.Fatalf("arrival = %v, want %v", at, want)
	}
}

func TestDeliverCrossRackThrottled(t *testing.T) {
	eng := des.New()
	nw := NewNetwork(eng)
	a := nw.NewNode("a", "/r1", 1000, 0)
	b := nw.NewNode("b", "/r2", 1000, 0)
	a.SetCrossRackLimit(100)
	b.SetCrossRackLimit(50)
	var at time.Duration
	nw.Deliver(a, b, 100, 0, func(int) { at = eng.Now() }, 0)
	eng.Run()
	// 0.1s egress + 1s a's cross-out + 2s b's cross-in + 0.1s ingress.
	want := 3200 * time.Millisecond
	if at != want {
		t.Fatalf("arrival = %v, want %v", at, want)
	}
}

// The destination's ingress takes packets in the order they reach it,
// not the order they were handed to Deliver: a packet delivered first but
// leaving its source later queues behind ones that got there before it,
// among them one from another rack that reached the ingress through the
// destination's cross-rack shaper. Every packet shares one arrival
// callback and keeps its own tag across both of its stages.
func TestDeliverIngressTakesArrivalOrder(t *testing.T) {
	eng := des.New()
	nw := NewNetwork(eng)
	late := nw.NewNode("late", "/r", 1000, 0)
	early := nw.NewNode("early", "/r", 1000, 0)
	far := nw.NewNode("far", "/r2", 1000, 0)
	dst := nw.NewNode("dst", "/r", 100, 0)
	dst.SetCrossRackLimit(200)
	names := map[int]string{7: "late", 8: "far", 9: "early"}
	var order []string
	arrived := func(tag int) { order = append(order, fmt.Sprint(names[tag], "@", eng.Now())) }
	nw.Deliver(late, dst, 100, time.Second, arrived, 7)
	nw.Deliver(far, dst, 100, 0, arrived, 8)
	nw.Deliver(early, dst, 100, 0, arrived, 9)
	eng.Run()
	// early: 0.1s egress, 1s ingress (done at 1.1s). far: 0.1s egress,
	// 0.5s cross-in, then at 0.6s queues behind early (done at 2.1s).
	// late: egress done at 1.1s, then queues behind far (done at 3.1s).
	if got, want := strings.Join(order, " "), "early@1.1s far@2.1s late@3.1s"; got != want {
		t.Fatalf("arrivals %q, want %q", got, want)
	}
}

// A server takes jobs in arrival order, so one that arrives before the
// last job enqueued would break FIFO: Enqueue refuses it, whether the
// earlier arrival is in the future or now.
func TestEnqueueBeforePreviousArrivalPanics(t *testing.T) {
	for _, tc := range []struct {
		name string
		at   time.Duration
	}{{"future", time.Second}, {"now", 0}} {
		t.Run(tc.name, func(t *testing.T) {
			s := NewNetwork(des.New()).NewServer("s", 1000)
			s.Enqueue(2*time.Second, 10)
			defer func() {
				if recover() == nil {
					t.Fatal("an arrival before the previous one was accepted")
				}
			}()
			s.Enqueue(tc.at, 10)
		})
	}
}

func TestCrossRackShaperNotUsedInRack(t *testing.T) {
	eng := des.New()
	nw := NewNetwork(eng)
	a := nw.NewNode("a", "/r1", 1000, 0)
	b := nw.NewNode("b", "/r1", 1000, 0)
	a.SetCrossRackLimit(1) // brutally slow, but same rack: unused
	var at time.Duration
	nw.Deliver(a, b, 500, 0, func(int) { at = eng.Now() }, 0)
	eng.Run()
	if at != time.Second {
		t.Fatalf("arrival = %v, want 1s (cross-rack shaper must not apply)", at)
	}
}

// Two flows sharing an egress NIC each get ~half the bandwidth: the
// packets interleave through the FIFO server.
func TestBandwidthSharing(t *testing.T) {
	eng := des.New()
	nw := NewNetwork(eng)
	src := nw.NewNode("src", "/r", 1000, 0)
	d1 := nw.NewNode("d1", "/r", 1e12, 0)
	d2 := nw.NewNode("d2", "/r", 1e12, 0)

	const packets = 100
	const pkt = 10 // bytes
	var done1, done2 time.Duration
	left1, left2 := packets, packets
	for i := 0; i < packets; i++ {
		nw.Deliver(src, d1, pkt, 0, func(int) {
			left1--
			if left1 == 0 {
				done1 = eng.Now()
			}
		}, i)
		nw.Deliver(src, d2, pkt, 0, func(int) {
			left2--
			if left2 == 0 {
				done2 = eng.Now()
			}
		}, i)
	}
	eng.Run()
	// 2000 bytes total through a 1000 B/s NIC: both finish around 2s.
	if math.Abs(seconds(done1)-2.0) > 0.05 || math.Abs(seconds(done2)-2.0) > 0.05 {
		t.Fatalf("flows done at %v / %v, want ≈2s each", done1, done2)
	}
}

func TestPipeliningThroughStages(t *testing.T) {
	// Across many packets, chained stages must give min-rate throughput,
	// not sum-of-stage-times throughput.
	eng := des.New()
	nw := NewNetwork(eng)
	a := nw.NewNode("a", "/r1", 1000, 0)
	b := nw.NewNode("b", "/r2", 1000, 0)
	a.SetCrossRackLimit(500) // bottleneck
	const packets, pkt = 100, 10
	var last time.Duration
	left := packets
	for i := 0; i < packets; i++ {
		nw.Deliver(a, b, pkt, 0, func(int) {
			left--
			if left == 0 {
				last = eng.Now()
			}
		}, i)
	}
	eng.Run()
	// 1000 bytes at bottleneck 500 B/s = 2s (+ one packet's worth of
	// pipeline fill on the other stages).
	if seconds(last) < 2.0 || seconds(last) > 2.1 {
		t.Fatalf("last arrival = %v, want ≈2s (bottleneck-limited)", last)
	}
}

func TestSetNICLimit(t *testing.T) {
	n := NewNetwork(des.New()).NewNode("n", "/r", 1000, 0)
	n.SetNICLimit(50)
	if n.Egress.rate != 50 || n.Ingress.rate != 50 {
		t.Fatalf("rates = %v/%v, want 50/50", n.Egress.rate, n.Ingress.rate)
	}
}

func TestNetworkNodeLookup(t *testing.T) {
	eng := des.New()
	nw := NewNetwork(eng)
	n := nw.NewNode("x", "/r", 1, 1)
	if nw.Node("x") != n || nw.Node("y") != nil {
		t.Fatal("node lookup broken")
	}
}
