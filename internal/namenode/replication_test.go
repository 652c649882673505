package namenode

import (
	"testing"

	"repro/internal/nnapi"
)

// completeFileWithReplicas writes a 2-block file whose replicas live on
// the named datanodes, and completes it.
func completeFileWithReplicas(t testing.TB, nn *Namenode, path string, holders [][]string) {
	t.Helper()
	nn.Create(nnapi.CreateReq{Path: path, Client: "c", Replication: 3, BlockSize: 64 << 20})
	for _, hs := range holders {
		resp, err := nn.AddBlock(nnapi.AddBlockReq{Path: path, Client: "c"})
		if err != nil {
			t.Fatal(err)
		}
		b := resp.Located.Block
		b.NumBytes = 100
		for _, h := range hs {
			if _, err := nn.BlockReceived(nnapi.BlockReceivedReq{Name: h, Block: b}); err != nil {
				t.Fatal(err)
			}
		}
	}
	done, err := nn.Complete(nnapi.CompleteReq{Path: path, Client: "c"})
	if err != nil || !done.Done {
		t.Fatalf("complete: %v %v", done, err)
	}
}

func TestReplicationScanIssuesWork(t *testing.T) {
	nn, clk, names := newTestNN(t)
	completeFileWithReplicas(t, nn, "/f", [][]string{
		{"dn1", "dn2", "dn3"},
		{"dn1", "dn4", "dn5"},
	})

	// Kill dn1 by letting it expire while others beat.
	clk.advance(DefaultExpiry / 2)
	beatAll(t, nn, names[1:])
	clk.advance(DefaultExpiry / 2)

	// dn1 is now expired while the others are still live. The next beat
	// triggers a scan (the last one ran half an expiry ago, beyond the
	// scan rate limit); each block has exactly one sorted-first live
	// holder that should receive the copy command on its own beat.
	gotWork := map[string]int{}
	for _, n := range names[1:] {
		hb, err := nn.Heartbeat(nnapi.HeartbeatReq{Name: n})
		if err != nil {
			t.Fatal(err)
		}
		for _, cmd := range hb.Replicate {
			gotWork[n]++
			if len(cmd.Targets) != 1 {
				t.Fatalf("cmd targets = %v, want exactly 1 replacement", cmd.Targets)
			}
			// Replacement must not be an existing holder or the dead node.
			bad := map[string]bool{"dn1": true, "dn2": true, "dn3": true}
			if cmd.Block.ID == 2 {
				bad = map[string]bool{"dn1": true, "dn4": true, "dn5": true}
			}
			if bad[cmd.Targets[0].Name] {
				t.Fatalf("replacement %s already holds block %d", cmd.Targets[0].Name, cmd.Block.ID)
			}
		}
	}
	// Block 1's sorted-first live holder is dn2; block 2's is dn4.
	if gotWork["dn2"] != 1 || gotWork["dn4"] != 1 {
		t.Fatalf("work distribution = %v, want dn2:1 dn4:1", gotWork)
	}

	// Pending guard: a re-scan (past the rate limit but within the
	// pending timeout) issues nothing.
	clk.advance(DefaultExpiry / 4)
	for _, n := range names[1:] {
		hb, _ := nn.Heartbeat(nnapi.HeartbeatReq{Name: n})
		if len(hb.Replicate) != 0 {
			t.Fatalf("duplicate replication work issued to %s: %v", n, hb.Replicate)
		}
	}

	// A blockReceived for the block clears pending; if it is now fully
	// replicated no further work appears.
	locs, _ := nn.GetBlockLocations(nnapi.GetBlockLocationsReq{Path: "/f"})
	b := locs.Blocks[0].Block
	if _, err := nn.BlockReceived(nnapi.BlockReceivedReq{Name: "dn9", Block: b}); err != nil {
		t.Fatal(err)
	}
	clk.advance(DefaultExpiry / 4)
	for _, n := range names[1:] {
		hb, _ := nn.Heartbeat(nnapi.HeartbeatReq{Name: n})
		for _, cmd := range hb.Replicate {
			if cmd.Block.ID == b.ID {
				t.Fatalf("work re-issued for fully replicated block %v", cmd.Block)
			}
		}
	}
}

func TestReplicationIgnoresUnderConstruction(t *testing.T) {
	nn, clk, names := newTestNN(t)
	// Allocate a block but never complete the file.
	nn.Create(nnapi.CreateReq{Path: "/open", Client: "c", Replication: 3, BlockSize: 64 << 20})
	resp, _ := nn.AddBlock(nnapi.AddBlockReq{Path: "/open", Client: "c"})
	b := resp.Located.Block
	nn.BlockReceived(nnapi.BlockReceivedReq{Name: "dn2", Block: b})

	clk.advance(2 * DefaultExpiry)
	beatAll(t, nn, names)
	for _, n := range names {
		hb, _ := nn.Heartbeat(nnapi.HeartbeatReq{Name: n})
		if len(hb.Replicate) != 0 {
			t.Fatalf("replication work issued for under-construction file: %v", hb.Replicate)
		}
	}
}
