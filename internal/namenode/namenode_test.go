package namenode

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/block"
	"repro/internal/nnapi"
	"repro/internal/proto"
)

// testClock is a manually advanced clock.
type testClock struct {
	mu  sync.Mutex
	now time.Time
}

func newTestClock() *testClock { return &testClock{now: time.Unix(1000, 0)} }

func (c *testClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}
func (c *testClock) Sleep(d time.Duration) { c.advance(d) }
func (c *testClock) After(d time.Duration) <-chan time.Time {
	ch := make(chan time.Time, 1)
	c.advance(d)
	ch <- c.Now()
	return ch
}
func (c *testClock) advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

// newTestNN builds a namenode with 9 datanodes on two racks (5 + 4),
// mirroring the paper's two-rack scenario.
func newTestNN(t testing.TB) (*Namenode, *testClock, []string) {
	t.Helper()
	clk := newTestClock()
	nn := New(Options{Clock: clk, Seed: 42})
	var names []string
	for i := 1; i <= 9; i++ {
		rack := "/rack-a"
		if i > 5 {
			rack = "/rack-b"
		}
		name := dnName(i)
		names = append(names, name)
		if _, err := nn.Register(nnapi.RegisterReq{Name: name, Addr: "mem://" + name, Rack: rack}); err != nil {
			t.Fatal(err)
		}
	}
	return nn, clk, names
}

func dnName(i int) string {
	return "dn" + string(rune('0'+i))
}

func beatAll(t *testing.T, nn *Namenode, names []string) {
	t.Helper()
	for _, n := range names {
		if _, err := nn.Heartbeat(nnapi.HeartbeatReq{Name: n}); err != nil {
			t.Fatal(err)
		}
	}
}

func TestCreateAddBlockComplete(t *testing.T) {
	nn, _, _ := newTestNN(t)
	if _, err := nn.Create(nnapi.CreateReq{Path: "/f", Client: "c1", Replication: 3, BlockSize: 64 << 20}); err != nil {
		t.Fatal(err)
	}
	// Duplicate create without overwrite fails.
	if _, err := nn.Create(nnapi.CreateReq{Path: "/f", Client: "c1", Replication: 3, BlockSize: 64 << 20}); !errors.Is(err, ErrFileExists) {
		t.Fatalf("duplicate create err = %v", err)
	}

	resp, err := nn.AddBlock(nnapi.AddBlockReq{Path: "/f", Client: "c1", Mode: proto.ModeHDFS})
	if err != nil {
		t.Fatal(err)
	}
	lb := resp.Located
	if len(lb.Targets) != 3 {
		t.Fatalf("targets = %v, want 3", lb.Targets)
	}
	seen := map[string]bool{}
	for _, tg := range lb.Targets {
		if seen[tg.Name] {
			t.Fatalf("duplicate target %s", tg.Name)
		}
		seen[tg.Name] = true
	}

	// Not complete until a replica is reported.
	done, err := nn.Complete(nnapi.CompleteReq{Path: "/f", Client: "c1"})
	if err != nil || done.Done {
		t.Fatalf("premature complete: %v %v", done, err)
	}
	finalized := lb.Block
	finalized.NumBytes = 1024
	if _, err := nn.BlockReceived(nnapi.BlockReceivedReq{Name: lb.Targets[0].Name, Block: finalized}); err != nil {
		t.Fatal(err)
	}
	done, err = nn.Complete(nnapi.CompleteReq{Path: "/f", Client: "c1"})
	if err != nil || !done.Done {
		t.Fatalf("complete = %v, %v", done, err)
	}
	// Completion is idempotent.
	done, err = nn.Complete(nnapi.CompleteReq{Path: "/f", Client: "c1"})
	if err != nil || !done.Done {
		t.Fatalf("re-complete = %v, %v", done, err)
	}

	info, _ := nn.GetFileInfo(nnapi.GetFileInfoReq{Path: "/f"})
	if !info.Exists || !info.Complete || info.Len != 1024 || info.NumBlocks != 1 {
		t.Fatalf("file info = %+v", info)
	}
}

func TestLease(t *testing.T) {
	nn, _, _ := newTestNN(t)
	nn.Create(nnapi.CreateReq{Path: "/f", Client: "owner", Replication: 1, BlockSize: 1 << 20})
	if _, err := nn.AddBlock(nnapi.AddBlockReq{Path: "/f", Client: "thief"}); !errors.Is(err, ErrLeaseViolation) {
		t.Fatalf("lease violation err = %v", err)
	}
	if _, err := nn.AddBlock(nnapi.AddBlockReq{Path: "/missing", Client: "owner"}); !errors.Is(err, ErrFileNotFound) {
		t.Fatalf("missing file err = %v", err)
	}
}

func TestDefaultPlacementRackSpread(t *testing.T) {
	nn, _, _ := newTestNN(t)
	nn.Create(nnapi.CreateReq{Path: "/f", Client: "c1", Replication: 3, BlockSize: 64 << 20})
	racks := func(name string) string {
		if name > "dn5" {
			return "/rack-b"
		}
		return "/rack-a"
	}
	for i := 0; i < 50; i++ {
		resp, err := nn.AddBlock(nnapi.AddBlockReq{Path: "/f", Client: "c1", Mode: proto.ModeHDFS})
		if err != nil {
			t.Fatal(err)
		}
		tg := resp.Located.Targets
		if len(tg) != 3 {
			t.Fatalf("targets = %v", tg)
		}
		// Second replica on a different rack from the first; third on the
		// second's rack.
		if racks(tg[0].Name) == racks(tg[1].Name) {
			t.Fatalf("replicas 1,2 share rack: %v", tg)
		}
		if racks(tg[1].Name) != racks(tg[2].Name) {
			t.Fatalf("replicas 2,3 on different racks: %v", tg)
		}
		if tg[1].Name == tg[2].Name {
			t.Fatalf("duplicate node in pipeline: %v", tg)
		}
	}
}

func TestClientLocalPlacement(t *testing.T) {
	nn, _, _ := newTestNN(t)
	// The client is itself a datanode: first replica must land on it.
	nn.Create(nnapi.CreateReq{Path: "/f", Client: "dn3", Replication: 3, BlockSize: 64 << 20})
	for i := 0; i < 10; i++ {
		resp, err := nn.AddBlock(nnapi.AddBlockReq{Path: "/f", Client: "dn3", Mode: proto.ModeHDFS})
		if err != nil {
			t.Fatal(err)
		}
		if resp.Located.Targets[0].Name != "dn3" {
			t.Fatalf("first target = %s, want client-local dn3", resp.Located.Targets[0].Name)
		}
	}
}

func TestSmarthPlacementUsesTopN(t *testing.T) {
	nn, _, _ := newTestNN(t)
	nn.Create(nnapi.CreateReq{Path: "/f", Client: "c1", Replication: 3, BlockSize: 64 << 20})

	// Record speeds: dn7, dn8, dn9 are fastest. n = 9/3 = 3, so the first
	// target must always be one of those three.
	speeds := map[string]float64{}
	for i := 1; i <= 9; i++ {
		speeds[dnName(i)] = float64(i * 100)
	}
	nn.ClientHeartbeat(nnapi.ClientHeartbeatReq{Client: "c1", Speeds: speeds})

	fast := map[string]bool{"dn7": true, "dn8": true, "dn9": true}
	firstCounts := map[string]int{}
	for i := 0; i < 60; i++ {
		resp, err := nn.AddBlock(nnapi.AddBlockReq{Path: "/f", Client: "c1", Mode: proto.ModeSmarth})
		if err != nil {
			t.Fatal(err)
		}
		first := resp.Located.Targets[0].Name
		if !fast[first] {
			t.Fatalf("first target %s not in TopN", first)
		}
		firstCounts[first]++
		if len(resp.Located.Targets) != 3 {
			t.Fatalf("targets = %v", resp.Located.Targets)
		}
	}
	// Random among TopN: each should appear at least once over 60 draws.
	for dn := range fast {
		if firstCounts[dn] == 0 {
			t.Fatalf("fast node %s never chosen first: %v", dn, firstCounts)
		}
	}
}

func TestSmarthFallsBackWithoutRecords(t *testing.T) {
	nn, _, _ := newTestNN(t)
	nn.Create(nnapi.CreateReq{Path: "/f", Client: "fresh", Replication: 3, BlockSize: 64 << 20})
	resp, err := nn.AddBlock(nnapi.AddBlockReq{Path: "/f", Client: "fresh", Mode: proto.ModeSmarth})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Located.Targets) != 3 {
		t.Fatalf("fallback targets = %v", resp.Located.Targets)
	}
}

func TestAddBlockExclusion(t *testing.T) {
	nn, _, names := newTestNN(t)
	nn.Create(nnapi.CreateReq{Path: "/f", Client: "c1", Replication: 3, BlockSize: 64 << 20})
	// Exclude six nodes; the pipeline must use only the remaining three.
	exclude := names[:6]
	allowed := map[string]bool{"dn7": true, "dn8": true, "dn9": true}
	for i := 0; i < 20; i++ {
		resp, err := nn.AddBlock(nnapi.AddBlockReq{Path: "/f", Client: "c1", Mode: proto.ModeSmarth, Exclude: exclude})
		if err != nil {
			t.Fatal(err)
		}
		for _, tg := range resp.Located.Targets {
			if !allowed[tg.Name] {
				t.Fatalf("excluded node %s chosen", tg.Name)
			}
		}
	}
	// Excluding everything fails.
	if _, err := nn.AddBlock(nnapi.AddBlockReq{Path: "/f", Client: "c1", Exclude: names}); err == nil {
		t.Fatal("addBlock with all nodes excluded succeeded")
	}
}

func TestHeartbeatExpiry(t *testing.T) {
	nn, clk, names := newTestNN(t)
	info, _ := nn.ClusterInfo(nnapi.ClusterInfoReq{})
	if info.ActiveDatanodes != 9 || info.Racks != 2 {
		t.Fatalf("cluster info = %+v", info)
	}
	// Let dn1 expire while the others keep beating.
	clk.advance(DefaultExpiry / 2)
	beatAll(t, nn, names[1:])
	clk.advance(DefaultExpiry / 2)
	info, _ = nn.ClusterInfo(nnapi.ClusterInfoReq{})
	if info.ActiveDatanodes != 8 {
		t.Fatalf("active = %d after expiry, want 8", info.ActiveDatanodes)
	}
	// Dead node never appears in placements.
	nn.Create(nnapi.CreateReq{Path: "/f", Client: "c1", Replication: 3, BlockSize: 64 << 20})
	for i := 0; i < 30; i++ {
		resp, err := nn.AddBlock(nnapi.AddBlockReq{Path: "/f", Client: "c1", Mode: proto.ModeHDFS})
		if err != nil {
			t.Fatal(err)
		}
		for _, tg := range resp.Located.Targets {
			if tg.Name == "dn1" {
				t.Fatal("dead datanode placed in pipeline")
			}
		}
	}
	// Re-registration revives it.
	nn.Register(nnapi.RegisterReq{Name: "dn1", Addr: "mem://dn1", Rack: "/rack-a"})
	info, _ = nn.ClusterInfo(nnapi.ClusterInfoReq{})
	if info.ActiveDatanodes != 9 {
		t.Fatalf("active = %d after re-register, want 9", info.ActiveDatanodes)
	}
}

func TestHeartbeatFromUnknownDatanode(t *testing.T) {
	nn, _, _ := newTestNN(t)
	if _, err := nn.Heartbeat(nnapi.HeartbeatReq{Name: "ghost"}); err == nil {
		t.Fatal("heartbeat from unregistered datanode accepted")
	}
}

func TestRecoverBlock(t *testing.T) {
	nn, _, _ := newTestNN(t)
	nn.Create(nnapi.CreateReq{Path: "/f", Client: "c1", Replication: 3, BlockSize: 64 << 20})
	resp, _ := nn.AddBlock(nnapi.AddBlockReq{Path: "/f", Client: "c1", Mode: proto.ModeHDFS})
	lb := resp.Located
	oldGen := lb.Block.Gen

	// One replica got finalized before the pipeline died.
	rep := lb.Block
	rep.NumBytes = 500
	nn.BlockReceived(nnapi.BlockReceivedReq{Name: lb.Targets[0].Name, Block: rep})

	// Recover: dn[1] failed, dn[0] and dn[2] survive.
	alive := []string{lb.Targets[0].Name, lb.Targets[2].Name}
	rresp, err := nn.RecoverBlock(nnapi.RecoverBlockReq{
		Path: "/f", Client: "c1", Block: lb.Block,
		Alive:   alive,
		Exclude: []string{lb.Targets[1].Name},
	})
	if err != nil {
		t.Fatal(err)
	}
	nlb := rresp.Located
	if nlb.Block.Gen <= oldGen {
		t.Fatalf("gen not bumped: %d -> %d", oldGen, nlb.Block.Gen)
	}
	if nlb.Block.ID != lb.Block.ID {
		t.Fatalf("block identity changed: %v -> %v", lb.Block, nlb.Block)
	}
	if len(nlb.Targets) != 3 {
		t.Fatalf("recovered targets = %v, want 3", nlb.Targets)
	}
	if nlb.Targets[0].Name != alive[0] || nlb.Targets[1].Name != alive[1] {
		t.Fatalf("survivors not kept in order: %v", nlb.Names())
	}
	for _, tg := range nlb.Targets {
		if tg.Name == lb.Targets[1].Name {
			t.Fatal("failed node re-selected")
		}
	}

	// Old-generation replica reports are now rejected.
	if _, err := nn.BlockReceived(nnapi.BlockReceivedReq{Name: "dn5", Block: lb.Block}); err == nil {
		t.Fatal("stale-generation blockReceived accepted")
	}
	// New-generation reports work and complete the file.
	fresh := nlb.Block
	fresh.NumBytes = 500
	if _, err := nn.BlockReceived(nnapi.BlockReceivedReq{Name: nlb.Targets[0].Name, Block: fresh}); err != nil {
		t.Fatal(err)
	}
	done, err := nn.Complete(nnapi.CompleteReq{Path: "/f", Client: "c1"})
	if err != nil || !done.Done {
		t.Fatalf("complete after recovery = %v, %v", done, err)
	}
}

func TestRecoverSchedulesInvalidation(t *testing.T) {
	nn, _, _ := newTestNN(t)
	nn.Create(nnapi.CreateReq{Path: "/f", Client: "c1", Replication: 3, BlockSize: 64 << 20})
	resp, _ := nn.AddBlock(nnapi.AddBlockReq{Path: "/f", Client: "c1"})
	lb := resp.Located
	holder := lb.Targets[0].Name
	nn.BlockReceived(nnapi.BlockReceivedReq{Name: holder, Block: lb.Block})
	// Recovery with no survivors: the old replica must be invalidated.
	if _, err := nn.RecoverBlock(nnapi.RecoverBlockReq{Path: "/f", Client: "c1", Block: lb.Block}); err != nil {
		t.Fatal(err)
	}
	hb, err := nn.Heartbeat(nnapi.HeartbeatReq{Name: holder})
	if err != nil {
		t.Fatal(err)
	}
	if len(hb.Invalidate) != 1 || hb.Invalidate[0].ID != lb.Block.ID {
		t.Fatalf("invalidate = %v, want [%d]", hb.Invalidate, lb.Block.ID)
	}
	if hb.Invalidate[0].Gen != lb.Block.Gen {
		t.Fatalf("invalidate stale gen = %d, want old gen %d", hb.Invalidate[0].Gen, lb.Block.Gen)
	}
	// Drained: the next heartbeat is empty.
	hb, _ = nn.Heartbeat(nnapi.HeartbeatReq{Name: holder})
	if len(hb.Invalidate) != 0 {
		t.Fatalf("invalidate not drained: %v", hb.Invalidate)
	}
}

func TestAddBlockRetryReusesUnwrittenTail(t *testing.T) {
	// A timed-out addBlock that the namenode nevertheless executed leaves
	// a tail block the client never heard about; the client's retry
	// (same Previous) must get that block back, not a fresh orphan.
	nn, _, _ := newTestNN(t)
	nn.Create(nnapi.CreateReq{Path: "/f", Client: "c1", Replication: 1, BlockSize: 1 << 20})
	r1, err := nn.AddBlock(nnapi.AddBlockReq{Path: "/f", Client: "c1"})
	if err != nil {
		t.Fatal(err)
	}
	// Retry of the first allocation (client saw no response: Previous zero).
	r1b, err := nn.AddBlock(nnapi.AddBlockReq{Path: "/f", Client: "c1"})
	if err != nil {
		t.Fatal(err)
	}
	if r1b.Located.Block.ID != r1.Located.Block.ID {
		t.Fatalf("retry allocated a new block %v, want %v", r1b.Located.Block, r1.Located.Block)
	}
	info, _ := nn.GetFileInfo(nnapi.GetFileInfoReq{Path: "/f"})
	if info.NumBlocks != 1 {
		t.Fatalf("blocks = %d after retried first addBlock, want 1", info.NumBlocks)
	}

	// Once the tail has a finalized replica it is no longer reusable: the
	// same request now allocates the next block.
	holder := r1.Located.Targets[0].Name
	nn.BlockReceived(nnapi.BlockReceivedReq{Name: holder, Block: r1.Located.Block})
	r2, err := nn.AddBlock(nnapi.AddBlockReq{Path: "/f", Client: "c1", Previous: r1.Located.Block})
	if err != nil {
		t.Fatal(err)
	}
	if r2.Located.Block.ID == r1.Located.Block.ID {
		t.Fatal("finalized tail was reused")
	}

	// A retried second allocation reuses the unwritten tail too.
	r2b, err := nn.AddBlock(nnapi.AddBlockReq{Path: "/f", Client: "c1", Previous: r1.Located.Block})
	if err != nil {
		t.Fatal(err)
	}
	if r2b.Located.Block.ID != r2.Located.Block.ID {
		t.Fatalf("retry allocated %v, want %v", r2b.Located.Block, r2.Located.Block)
	}
	info, _ = nn.GetFileInfo(nnapi.GetFileInfoReq{Path: "/f"})
	if info.NumBlocks != 2 {
		t.Fatalf("blocks = %d, want 2", info.NumBlocks)
	}
}

func TestGetBlockLocations(t *testing.T) {
	nn, _, _ := newTestNN(t)
	nn.Create(nnapi.CreateReq{Path: "/f", Client: "c1", Replication: 2, BlockSize: 1 << 20})
	r, _ := nn.AddBlock(nnapi.AddBlockReq{Path: "/f", Client: "c1"})
	lb := r.Located
	rep := lb.Block
	rep.NumBytes = 777
	nn.BlockReceived(nnapi.BlockReceivedReq{Name: lb.Targets[0].Name, Block: rep})
	nn.BlockReceived(nnapi.BlockReceivedReq{Name: lb.Targets[1].Name, Block: rep})

	loc, err := nn.GetBlockLocations(nnapi.GetBlockLocationsReq{Path: "/f"})
	if err != nil {
		t.Fatal(err)
	}
	if loc.Len != 777 || len(loc.Blocks) != 1 {
		t.Fatalf("locations = %+v", loc)
	}
	if len(loc.Blocks[0].Targets) != 2 {
		t.Fatalf("replica holders = %v, want 2", loc.Blocks[0].Names())
	}
	if _, err := nn.GetBlockLocations(nnapi.GetBlockLocationsReq{Path: "/none"}); err == nil {
		t.Fatal("locations for missing file succeeded")
	}
}

func TestRegisterReportsStaleBlocks(t *testing.T) {
	nn, _, _ := newTestNN(t)
	// A datanode reporting a block the namenode never heard of gets told
	// to delete it.
	nn.Register(nnapi.RegisterReq{
		Name: "dn1", Addr: "mem://dn1", Rack: "/rack-a",
		Blocks: []block.Block{{ID: 999, Gen: 1, NumBytes: 10}},
	})
	hb, _ := nn.Heartbeat(nnapi.HeartbeatReq{Name: "dn1"})
	if len(hb.Invalidate) != 1 || hb.Invalidate[0].ID != 999 {
		t.Fatalf("invalidate = %v, want [999]", hb.Invalidate)
	}
}

func TestCreateOverwrite(t *testing.T) {
	nn, _, _ := newTestNN(t)
	nn.Create(nnapi.CreateReq{Path: "/f", Client: "c1", Replication: 1, BlockSize: 1 << 20})
	nn.AddBlock(nnapi.AddBlockReq{Path: "/f", Client: "c1"})
	if _, err := nn.Create(nnapi.CreateReq{Path: "/f", Client: "c2", Replication: 1, BlockSize: 1 << 20, Overwrite: true}); err != nil {
		t.Fatal(err)
	}
	info, _ := nn.GetFileInfo(nnapi.GetFileInfoReq{Path: "/f"})
	if info.NumBlocks != 0 {
		t.Fatalf("overwritten file kept %d blocks", info.NumBlocks)
	}
}

func TestErrorsAreDescriptive(t *testing.T) {
	nn, _, _ := newTestNN(t)
	_, err := nn.AddBlock(nnapi.AddBlockReq{Path: "/nope", Client: "c"})
	if err == nil || !strings.Contains(err.Error(), "/nope") {
		t.Fatalf("error %q should mention the path", err)
	}
}
