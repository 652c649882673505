package netsim

import (
	"math"
	"testing"
	"time"

	"repro/internal/des"
)

func seconds(d time.Duration) float64 { return d.Seconds() }

func TestServerSerialization(t *testing.T) {
	eng := des.New()
	s := NewNetwork(eng, 0).NewServer("s", 1000) // 1000 B/s
	var done []time.Duration
	s.Enqueue(500, func() { done = append(done, eng.Now()) })
	s.Enqueue(500, func() { done = append(done, eng.Now()) })
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
	s := NewNetwork(eng, 0).NewServer("s", 1000)
	var second time.Duration
	s.Enqueue(1000, func() {
		// Enqueue the next job later, leaving the server idle for 1s.
		eng.Schedule(time.Second, func() {
			s.Enqueue(1000, func() { second = eng.Now() })
		})
	})
	eng.Run()
	if math.Abs(seconds(second)-3.0) > 1e-9 {
		t.Fatalf("second job done at %v, want 3s (1s busy + 1s idle + 1s busy)", second)
	}
}

func TestInfiniteRate(t *testing.T) {
	eng := des.New()
	s := NewNetwork(eng, 0).NewServer("s", 0)
	var at time.Duration = -1
	s.Enqueue(1<<40, func() { at = eng.Now() })
	eng.Run()
	if at != 0 {
		t.Fatalf("infinite-rate job done at %v, want 0", at)
	}
}

func TestDeliverSameRack(t *testing.T) {
	eng := des.New()
	nw := NewNetwork(eng, time.Millisecond)
	a := nw.NewNode("a", "/r1", 1000, 0)
	b := nw.NewNode("b", "/r1", 1000, 0)
	var at time.Duration
	nw.Deliver(a, b, 500, func() { at = eng.Now() })
	eng.Run()
	// 0.5s egress + 0.5s ingress (store-and-forward stages) + 1ms.
	want := time.Second + time.Millisecond
	if at != want {
		t.Fatalf("arrival = %v, want %v", at, want)
	}
}

func TestDeliverCrossRackThrottled(t *testing.T) {
	eng := des.New()
	nw := NewNetwork(eng, 0)
	a := nw.NewNode("a", "/r1", 1000, 0)
	b := nw.NewNode("b", "/r2", 1000, 0)
	a.SetCrossRackLimit(100)
	var at time.Duration
	nw.Deliver(a, b, 100, func() { at = eng.Now() })
	eng.Run()
	// 0.1s egress + 1s cross-out + 0.1s ingress.
	want := 1200 * time.Millisecond
	if at != want {
		t.Fatalf("arrival = %v, want %v", at, want)
	}
}

func TestCrossRackShaperNotUsedInRack(t *testing.T) {
	eng := des.New()
	nw := NewNetwork(eng, 0)
	a := nw.NewNode("a", "/r1", 1000, 0)
	b := nw.NewNode("b", "/r1", 1000, 0)
	a.SetCrossRackLimit(1) // brutally slow, but same rack: unused
	var at time.Duration
	nw.Deliver(a, b, 500, func() { at = eng.Now() })
	eng.Run()
	if at != time.Second {
		t.Fatalf("arrival = %v, want 1s (cross-rack shaper must not apply)", at)
	}
}

// Two flows sharing an egress NIC each get ~half the bandwidth: the
// packets interleave through the FIFO server.
func TestBandwidthSharing(t *testing.T) {
	eng := des.New()
	nw := NewNetwork(eng, 0)
	src := nw.NewNode("src", "/r", 1000, 0)
	d1 := nw.NewNode("d1", "/r", 1e12, 0)
	d2 := nw.NewNode("d2", "/r", 1e12, 0)

	const packets = 100
	const pkt = 10 // bytes
	var done1, done2 time.Duration
	left1, left2 := packets, packets
	for i := 0; i < packets; i++ {
		nw.Deliver(src, d1, pkt, func() {
			left1--
			if left1 == 0 {
				done1 = eng.Now()
			}
		})
		nw.Deliver(src, d2, pkt, func() {
			left2--
			if left2 == 0 {
				done2 = eng.Now()
			}
		})
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
	nw := NewNetwork(eng, 0)
	a := nw.NewNode("a", "/r1", 1000, 0)
	b := nw.NewNode("b", "/r2", 1000, 0)
	a.SetCrossRackLimit(500) // bottleneck
	const packets, pkt = 100, 10
	var last time.Duration
	left := packets
	for i := 0; i < packets; i++ {
		nw.Deliver(a, b, pkt, func() {
			left--
			if left == 0 {
				last = eng.Now()
			}
		})
	}
	eng.Run()
	// 1000 bytes at bottleneck 500 B/s = 2s (+ one packet's worth of
	// pipeline fill on the other stages).
	if seconds(last) < 2.0 || seconds(last) > 2.1 {
		t.Fatalf("last arrival = %v, want ≈2s (bottleneck-limited)", last)
	}
}

func TestSetNICLimit(t *testing.T) {
	n := NewNetwork(des.New(), 0).NewNode("n", "/r", 1000, 0)
	n.SetNICLimit(50)
	if n.Egress.rate != 50 || n.Ingress.rate != 50 {
		t.Fatalf("rates = %v/%v, want 50/50", n.Egress.rate, n.Ingress.rate)
	}
}

func TestNetworkNodeLookup(t *testing.T) {
	eng := des.New()
	nw := NewNetwork(eng, 0)
	n := nw.NewNode("x", "/r", 1, 1)
	if nw.Node("x") != n || nw.Node("y") != nil {
		t.Fatal("node lookup broken")
	}
}
