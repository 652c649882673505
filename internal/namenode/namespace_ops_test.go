package namenode

import (
	"errors"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/nnapi"
)

func TestDeleteFileInvalidatesReplicas(t *testing.T) {
	nn, _, _ := newTestNN(t)
	completeFileWithReplicas(t, nn, "/del", [][]string{{"dn1", "dn2", "dn3"}})

	resp, err := nn.Delete(nnapi.DeleteReq{Path: "/del"})
	if err != nil || !resp.Deleted {
		t.Fatalf("delete = %+v, %v", resp, err)
	}
	// Gone from the namespace.
	info, _ := nn.GetFileInfo(nnapi.GetFileInfoReq{Path: "/del"})
	if info.Exists {
		t.Fatal("file still exists after delete")
	}
	// Every holder gets an invalidation.
	for _, dn := range []string{"dn1", "dn2", "dn3"} {
		hb, _ := nn.Heartbeat(nnapi.HeartbeatReq{Name: dn})
		if len(hb.Invalidate) != 1 {
			t.Fatalf("%s invalidations = %v, want 1", dn, hb.Invalidate)
		}
	}
	// Deleting again reports not-found.
	resp, err = nn.Delete(nnapi.DeleteReq{Path: "/del"})
	if err != nil || resp.Deleted {
		t.Fatalf("second delete = %+v, %v", resp, err)
	}
}

func TestRename(t *testing.T) {
	nn, _, _ := newTestNN(t)
	completeFileWithReplicas(t, nn, "/old", [][]string{{"dn1"}})
	if _, err := nn.Rename(nnapi.RenameReq{Src: "/old", Dst: "/new"}); err != nil {
		t.Fatal(err)
	}
	if info, _ := nn.GetFileInfo(nnapi.GetFileInfoReq{Path: "/old"}); info.Exists {
		t.Fatal("source still exists")
	}
	info, _ := nn.GetFileInfo(nnapi.GetFileInfoReq{Path: "/new"})
	if !info.Exists || info.Len != 100 {
		t.Fatalf("dest info = %+v", info)
	}
	// Locations still resolve under the new path.
	locs, err := nn.GetBlockLocations(nnapi.GetBlockLocationsReq{Path: "/new"})
	if err != nil || len(locs.Blocks) != 1 || len(locs.Blocks[0].Targets) != 1 {
		t.Fatalf("locations after rename = %+v, %v", locs, err)
	}

	// Error paths.
	if _, err := nn.Rename(nnapi.RenameReq{Src: "/missing", Dst: "/x"}); !errors.Is(err, ErrFileNotFound) {
		t.Fatalf("rename missing err = %v", err)
	}
	completeFileWithReplicas(t, nn, "/other", [][]string{{"dn2"}})
	if _, err := nn.Rename(nnapi.RenameReq{Src: "/other", Dst: "/new"}); !errors.Is(err, ErrFileExists) {
		t.Fatalf("rename onto existing err = %v", err)
	}
}

func TestList(t *testing.T) {
	nn, _, _ := newTestNN(t)
	completeFileWithReplicas(t, nn, "/a/1", [][]string{{"dn1", "dn2"}})
	completeFileWithReplicas(t, nn, "/a/2", [][]string{{"dn3"}})
	completeFileWithReplicas(t, nn, "/b/1", [][]string{{"dn4"}})

	resp, err := nn.List(nnapi.ListReq{Prefix: "/a/"})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Files) != 2 || resp.Files[0].Path != "/a/1" || resp.Files[1].Path != "/a/2" {
		t.Fatalf("list /a/ = %+v", resp.Files)
	}
	// Health: /a/1 has 2 live replicas (want 3), /a/2 has 1.
	if resp.Files[0].MinLiveReplicas != 2 || resp.Files[1].MinLiveReplicas != 1 {
		t.Fatalf("min live replicas = %d/%d", resp.Files[0].MinLiveReplicas, resp.Files[1].MinLiveReplicas)
	}
	all, _ := nn.List(nnapi.ListReq{})
	if len(all.Files) != 3 {
		t.Fatalf("list all = %d files", len(all.Files))
	}
	// Zero-block file health is 0.
	nn.Create(nnapi.CreateReq{Path: "/empty", Client: "c", Replication: 3, BlockSize: 1 << 20})
	nn.Complete(nnapi.CompleteReq{Path: "/empty", Client: "c"})
	el, _ := nn.List(nnapi.ListReq{Prefix: "/empty"})
	if len(el.Files) != 1 || el.Files[0].MinLiveReplicas != 0 || !el.Files[0].Complete {
		t.Fatalf("empty file status = %+v", el.Files)
	}
}

func TestGetBlockLocationsClientOrdering(t *testing.T) {
	nn, _, _ := newTestNN(t)
	// Replicas on dn1 (/rack-a), dn6 (/rack-b), dn2 (/rack-a).
	completeFileWithReplicas(t, nn, "/ord", [][]string{{"dn6", "dn2", "dn1"}})

	// Reader is dn1 itself: node-local replica first.
	locs, err := nn.GetBlockLocations(nnapi.GetBlockLocationsReq{Path: "/ord", Client: "dn1"})
	if err != nil {
		t.Fatal(err)
	}
	order := locs.Blocks[0].Names()
	if order[0] != "dn1" {
		t.Fatalf("order for dn1 = %v, want node-local first", order)
	}
	if order[2] != "dn6" {
		t.Fatalf("order for dn1 = %v, want remote-rack last", order)
	}
	// Reader on rack-b (dn7): dn6 first.
	locs, _ = nn.GetBlockLocations(nnapi.GetBlockLocationsReq{Path: "/ord", Client: "dn7"})
	if got := locs.Blocks[0].Names()[0]; got != "dn6" {
		t.Fatalf("order for dn7 starts with %s, want rack-local dn6", got)
	}
}

func TestLeaseExpiryRecovers(t *testing.T) {
	nn, clk, names := newTestNN(t)
	nn.Create(nnapi.CreateReq{Path: "/abandoned", Client: "ghost", Replication: 3, BlockSize: 64 << 20})
	r1, _ := nn.AddBlock(nnapi.AddBlockReq{Path: "/abandoned", Client: "ghost"})
	b1 := r1.Located.Block
	b1.NumBytes = 100
	nn.BlockReceived(nnapi.BlockReceivedReq{Name: r1.Located.Targets[0].Name, Block: b1})
	// A second block that never got data.
	nn.AddBlock(nnapi.AddBlockReq{Path: "/abandoned", Client: "ghost"})

	// The ghost client disappears. Datanodes keep beating; once the lease
	// window passes, a heartbeat-triggered scan recovers the lease.
	var work []nnapi.ReplicateCmd
	for elapsed := time.Duration(0); elapsed < DefaultLeaseTimeout+DefaultExpiry; elapsed += core.HeartbeatInterval {
		clk.advance(core.HeartbeatInterval)
		for _, n := range names {
			hb, err := nn.Heartbeat(nnapi.HeartbeatReq{Name: n})
			if err != nil {
				t.Fatal(err)
			}
			work = append(work, hb.Replicate...)
		}
	}
	info, _ := nn.GetFileInfo(nnapi.GetFileInfoReq{Path: "/abandoned"})
	if !info.Complete {
		t.Fatal("lease not recovered: file still under construction")
	}
	if info.NumBlocks != 1 || info.Len != 100 {
		t.Fatalf("recovered file = %+v, want the 1 replicated block kept", info)
	}
	// The kept block belongs to a complete file now, so the same scan
	// tops its one replica up to three.
	if len(work) != 1 || work[0].Block.ID != b1.ID || len(work[0].Targets) != 2 {
		t.Fatalf("replication work after recovery = %+v, want one command adding 2 replicas of block %d", work, b1.ID)
	}
	// The namespace entry is usable by others now.
	if _, err := nn.Create(nnapi.CreateReq{Path: "/abandoned", Client: "c2", Replication: 1, BlockSize: 1 << 20, Overwrite: true}); err != nil {
		t.Fatal(err)
	}
}

func TestLeaseRenewalPreventsRecovery(t *testing.T) {
	nn, clk, names := newTestNN(t)
	nn.Create(nnapi.CreateReq{Path: "/alive", Client: "writer", Replication: 3, BlockSize: 64 << 20})
	nn.AddBlock(nnapi.AddBlockReq{Path: "/alive", Client: "writer"})
	for i := 0; i < 6; i++ {
		clk.advance(DefaultLeaseTimeout / 2)
		// The writer heartbeats (even with no speed records): lease renews.
		nn.ClientHeartbeat(nnapi.ClientHeartbeatReq{Client: "writer"})
		beatAll(t, nn, names)
	}
	info, _ := nn.GetFileInfo(nnapi.GetFileInfoReq{Path: "/alive"})
	if info.Complete {
		t.Fatal("live writer's lease was stolen")
	}
}

func TestDecommissionPlacementAndStatus(t *testing.T) {
	nn, clk, names := newTestNN(t)
	completeFileWithReplicas(t, nn, "/d", [][]string{{"dn1", "dn2", "dn3"}})

	if _, err := nn.Decommission(nnapi.DecommissionReq{Name: "dn1"}); err != nil {
		t.Fatal(err)
	}
	if _, err := nn.Decommission(nnapi.DecommissionReq{Name: "nope"}); err == nil {
		t.Fatal("unknown node decommissioned")
	}

	// dn1 never appears in fresh placements.
	nn.Create(nnapi.CreateReq{Path: "/new", Client: "c", Replication: 3, BlockSize: 64 << 20})
	for i := 0; i < 20; i++ {
		resp, err := nn.AddBlock(nnapi.AddBlockReq{Path: "/new", Client: "c"})
		if err != nil {
			t.Fatal(err)
		}
		for _, tg := range resp.Located.Targets {
			if tg.Name == "dn1" {
				t.Fatal("decommissioning node placed")
			}
		}
	}

	// Status: the block on dn1/dn2/dn3 counts dn1's replica as gone, so
	// one block still depends on it.
	st, err := nn.DecommissionStatus(nnapi.DecommStatusReq{Name: "dn1"})
	if err != nil {
		t.Fatal(err)
	}
	if !st.Decommissioning || st.Done || st.RemainingBlocks != 1 {
		t.Fatalf("status = %+v", st)
	}

	// The replication scan must issue a copy sourced from a live holder.
	clk.advance(DefaultExpiry / 2)
	issued := 0
	for _, n := range names {
		hb, _ := nn.Heartbeat(nnapi.HeartbeatReq{Name: n})
		for _, cmd := range hb.Replicate {
			issued++
			if cmd.Targets[0].Name == "dn1" {
				t.Fatal("copy targeted the draining node")
			}
		}
	}
	if issued != 1 {
		t.Fatalf("replication commands issued = %d, want 1", issued)
	}

	// Once a 4th replica lands elsewhere, the drain is done.
	locs, _ := nn.GetBlockLocations(nnapi.GetBlockLocationsReq{Path: "/d"})
	b := locs.Blocks[0].Block
	nn.BlockReceived(nnapi.BlockReceivedReq{Name: "dn9", Block: b})
	st, _ = nn.DecommissionStatus(nnapi.DecommStatusReq{Name: "dn1"})
	if !st.Done {
		t.Fatalf("status after copy = %+v, want done", st)
	}

	// Cancel restores placement eligibility.
	nn.Decommission(nnapi.DecommissionReq{Name: "dn1", Cancel: true})
	st, _ = nn.DecommissionStatus(nnapi.DecommStatusReq{Name: "dn1"})
	if st.Decommissioning {
		t.Fatal("cancel did not clear the flag")
	}
}
