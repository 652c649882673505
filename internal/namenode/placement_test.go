package namenode

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/nnapi"
	"repro/internal/proto"
)

// readClock counts Now calls and, when step is set, moves forward by it
// on each: a clock under which two readings never agree.
type readClock struct {
	*testClock
	step  time.Duration
	reads int
}

func (c *readClock) Now() time.Time {
	c.reads++
	c.testClock.advance(c.step)
	return c.testClock.Now()
}

// smarthNN is newTestNN on a readClock, with speed records for "c" so
// SMARTH placement takes the TopN path.
func smarthNN(t testing.TB) (*Namenode, *readClock, []string) {
	t.Helper()
	clk := &readClock{testClock: newTestClock()}
	nn := New(Options{Clock: clk, Seed: 42})
	speeds := map[string]float64{}
	var names []string
	for i := 1; i <= 9; i++ {
		rack := "/rack-a"
		if i > 5 {
			rack = "/rack-b"
		}
		names = append(names, dnName(i))
		if _, err := nn.Register(nnapi.RegisterReq{Name: dnName(i), Addr: "mem://" + dnName(i), Rack: rack}); err != nil {
			t.Fatal(err)
		}
		speeds[dnName(i)] = float64(10 * i)
	}
	if _, err := nn.ClientHeartbeat(nnapi.ClientHeartbeatReq{Client: "c", Speeds: speeds}); err != nil {
		t.Fatal(err)
	}
	return nn, clk, names
}

// TestPlaceReadsClockOnce: liveness for a whole placement is judged
// against one reading of the clock, in both modes.
func TestPlaceReadsClockOnce(t *testing.T) {
	nn, clk, _ := smarthNN(t)
	for _, mode := range []proto.WriteMode{proto.ModeHDFS, proto.ModeSmarth} {
		before := clk.reads
		targets, err := nn.place(mode, "c", 3, nil)
		if err != nil || len(targets) != 3 {
			t.Fatalf("mode %v: place = %v, %v", mode, targets, err)
		}
		if got := clk.reads - before; got != 1 {
			t.Errorf("mode %v: one placement read the clock %d times, want 1", mode, got)
		}
	}
}

// TestPlaceDecidesOnOneSnapshot: nine datanodes that heartbeated at the
// same instant are alive or dead together, even under a clock that steps
// on every reading and with the expiry line one step away. A placement
// that read the clock per node, or per pass, would see the cluster
// shrink as it went — the second node already dead, TopN's n sized from
// more nodes than its candidates are drawn from — and come back short.
func TestPlaceDecidesOnOneSnapshot(t *testing.T) {
	nn, clk, names := smarthNN(t)
	// Refresh every node at one instant, then arrange that the very next
	// reading is the last at which they are all alive.
	beatAllAt := func() {
		clk.step = 0
		for _, n := range names {
			if _, known := nn.dm.heartbeat(n); !known {
				t.Fatalf("heartbeat %s: unknown datanode", n)
			}
		}
		clk.step = time.Millisecond
		clk.testClock.advance(DefaultExpiry - 2*clk.step)
	}
	for _, mode := range []proto.WriteMode{proto.ModeHDFS, proto.ModeSmarth} {
		beatAllAt()
		targets, err := nn.place(mode, "c", 3, nil)
		if err != nil || len(targets) != 3 {
			t.Fatalf("mode %v: place = %v, %v; want 3 targets from the first reading's snapshot", mode, targets, err)
		}
		// The reading after that finds nobody.
		if _, err := nn.place(mode, "c", 3, nil); err == nil {
			t.Fatalf("mode %v: the stepping clock did not expire the cluster; the test proves nothing", mode)
		}
	}
}

// TestAllocAddBlock bounds what one addBlock buys when called directly.
// It reads 3: the block's metadata (its holder slice waits for the
// first report) and the placement's two slices (exclusion list and
// targets; TopN ranks into a frame array); the budget leaves one for
// the file's block list growing.
func TestAllocAddBlock(t *testing.T) {
	nn, _, _ := smarthNN(t)
	const blocks = 200
	if _, err := nn.Create(nnapi.CreateReq{Path: "/f", Client: "c", Replication: 3, BlockSize: 1 << 20}); err != nil {
		t.Fatal(err)
	}
	req := nnapi.AddBlockReq{Path: "/f", Client: "c", Mode: proto.ModeSmarth}
	got := testing.AllocsPerRun(blocks, func() {
		resp, err := nn.AddBlock(req)
		if err != nil {
			t.Fatal(err)
		}
		req.Previous = resp.Located.Block
	})
	const budget = 4
	if got > budget {
		t.Errorf("AddBlock: %.1f allocs/op, budget %d", got, budget)
	}
}

// BenchmarkAddBlockDirect times addBlock as the meta_2w prefill and the
// DES call it: straight into the handler, SMARTH placement, R3, nine
// datanodes on two racks. A new file every 64 blocks, as the benchmark's
// uploads have it.
func BenchmarkAddBlockDirect(b *testing.B) {
	nn, _, _ := smarthNN(b)
	b.ReportAllocs()
	var req nnapi.AddBlockReq
	for i := 0; i < b.N; i++ {
		if i%64 == 0 {
			b.StopTimer()
			path := fmt.Sprintf("/bench/f%d", i/64)
			if _, err := nn.Create(nnapi.CreateReq{Path: path, Client: "c", Replication: 3, BlockSize: 1 << 20}); err != nil {
				b.Fatal(err)
			}
			req = nnapi.AddBlockReq{Path: path, Client: "c", Mode: proto.ModeSmarth}
			b.StartTimer()
		}
		resp, err := nn.AddBlock(req)
		if err != nil {
			b.Fatal(err)
		}
		req.Previous = resp.Located.Block
	}
}
