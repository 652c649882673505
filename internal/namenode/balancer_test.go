package namenode

import (
	"testing"

	"repro/internal/block"
	"repro/internal/nnapi"
)

// setUsage fakes heartbeat-reported disk usage.
func setUsage(t *testing.T, nn *Namenode, usage map[string]int64) {
	t.Helper()
	for dn, used := range usage {
		if _, err := nn.Heartbeat(nnapi.HeartbeatReq{Name: dn, UsedBytes: used}); err != nil {
			t.Fatal(err)
		}
	}
}

func TestBalanceSchedulesMoves(t *testing.T) {
	nn, _, names := newTestNN(t)
	// dn1 holds both blocks; everything else is empty.
	completeFileWithReplicas(t, nn, "/fat", [][]string{{"dn1"}, {"dn1"}})
	usage := map[string]int64{}
	for _, n := range names {
		usage[n] = 0
	}
	usage["dn1"] = 1000
	setUsage(t, nn, usage)

	resp, err := nn.Balance(nnapi.BalanceReq{})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Moves != 2 {
		t.Fatalf("moves = %d, want 2", resp.Moves)
	}
	if resp.MeanBytes != 1000/9 {
		t.Fatalf("mean = %d", resp.MeanBytes)
	}

	// The copy commands sit on dn1's heartbeat and target distinct
	// receivers that do not already hold the blocks.
	hb, _ := nn.Heartbeat(nnapi.HeartbeatReq{Name: "dn1", UsedBytes: 1000})
	if len(hb.Replicate) != 2 {
		t.Fatalf("dn1 got %d copy commands, want 2", len(hb.Replicate))
	}
	seen := map[string]bool{}
	for _, cmd := range hb.Replicate {
		if len(cmd.Targets) != 1 {
			t.Fatalf("cmd targets = %v", cmd.Targets)
		}
		tgt := cmd.Targets[0].Name
		if tgt == "dn1" {
			t.Fatal("move targeted the donor")
		}
		if seen[tgt] {
			t.Fatalf("two moves to the same receiver %s", tgt)
		}
		seen[tgt] = true
	}

	// A re-run schedules nothing: the moves are pending.
	resp, _ = nn.Balance(nnapi.BalanceReq{})
	if resp.Moves != 0 {
		t.Fatalf("second round scheduled %d duplicate moves", resp.Moves)
	}

	// Completing a move drops the source replica and invalidates it.
	locs, _ := nn.GetBlockLocations(nnapi.GetBlockLocationsReq{Path: "/fat"})
	b := locs.Blocks[0].Block
	var target string
	for _, cmd := range hb.Replicate {
		if cmd.Block.ID == b.ID {
			target = cmd.Targets[0].Name
		}
	}
	moved := b
	moved.NumBytes = 100
	if _, err := nn.BlockReceived(nnapi.BlockReceivedReq{Name: target, Block: moved}); err != nil {
		t.Fatal(err)
	}
	locs, _ = nn.GetBlockLocations(nnapi.GetBlockLocationsReq{Path: "/fat"})
	holders := locs.Blocks[0].Names()
	if len(holders) != 1 || holders[0] != target {
		t.Fatalf("holders after move = %v, want [%s]", holders, target)
	}
	inv, _ := nn.Heartbeat(nnapi.HeartbeatReq{Name: "dn1", UsedBytes: 900})
	found := false
	for _, i := range inv.Invalidate {
		if i.ID == b.ID {
			found = true
		}
	}
	if !found {
		t.Fatal("source replica not invalidated after move completed")
	}
}

func TestBalanceNoOpWhenEven(t *testing.T) {
	nn, _, names := newTestNN(t)
	completeFileWithReplicas(t, nn, "/f", [][]string{{"dn1", "dn2", "dn3"}})
	usage := map[string]int64{}
	for _, n := range names {
		usage[n] = 500
	}
	setUsage(t, nn, usage)
	resp, err := nn.Balance(nnapi.BalanceReq{})
	if err != nil || resp.Moves != 0 {
		t.Fatalf("balanced cluster scheduled %d moves (%v)", resp.Moves, err)
	}
}

// TestBalanceRespectsMaxMoves: one round schedules at most
// balancerMaxMoves moves, even with more blocks than that movable; the
// next round picks up where it stopped.
func TestBalanceRespectsMaxMoves(t *testing.T) {
	nn, _, names := newTestNN(t)
	holders := make([][]string, balancerMaxMoves+4)
	for i := range holders {
		holders[i] = []string{"dn1"}
	}
	completeFileWithReplicas(t, nn, "/many", holders)
	usage := map[string]int64{}
	for _, n := range names {
		usage[n] = 0
	}
	usage["dn1"] = 100 * int64(len(holders))
	setUsage(t, nn, usage)
	resp, _ := nn.Balance(nnapi.BalanceReq{})
	if resp.Moves != balancerMaxMoves {
		t.Fatalf("moves = %d, want %d (capped)", resp.Moves, balancerMaxMoves)
	}
	resp, _ = nn.Balance(nnapi.BalanceReq{})
	if want := len(holders) - balancerMaxMoves; resp.Moves != want {
		t.Fatalf("second round moves = %d, want the %d left", resp.Moves, want)
	}
}

func TestBalanceIgnoresStaleGenerations(t *testing.T) {
	nn, _, names := newTestNN(t)
	completeFileWithReplicas(t, nn, "/g", [][]string{{"dn1"}})
	usage := map[string]int64{}
	for _, n := range names {
		usage[n] = 0
	}
	usage["dn1"] = 1000
	setUsage(t, nn, usage)
	nn.Balance(nnapi.BalanceReq{})
	hb, _ := nn.Heartbeat(nnapi.HeartbeatReq{Name: "dn1", UsedBytes: 1000})
	if len(hb.Replicate) != 1 {
		t.Fatalf("commands = %d", len(hb.Replicate))
	}
	cmd := hb.Replicate[0]
	// A blockReceived from the right target but the WRONG generation must
	// not complete the move.
	stale := block.Block{ID: cmd.Block.ID, Gen: cmd.Block.Gen + 1, NumBytes: 1}
	nn.BlockReceived(nnapi.BlockReceivedReq{Name: cmd.Targets[0].Name, Block: stale})
	locs, _ := nn.GetBlockLocations(nnapi.GetBlockLocationsReq{Path: "/g"})
	for _, h := range locs.Blocks[0].Names() {
		if h == "dn1" {
			return // source still holds it: move not falsely completed
		}
	}
	t.Fatal("stale-generation report completed a balancer move")
}
