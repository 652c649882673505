package namenode

import (
	"errors"
	"slices"
	"testing"
	"time"

	"repro/internal/block"
	"repro/internal/core"
	"repro/internal/nnapi"
	"repro/internal/proto"
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

// Under SMARTH a later block can be reported while an earlier one is not
// (blocks 1 and 3 here). Lease recovery keeps the longest reported prefix,
// block 1, and drops block 3 with its replica: keeping it too would make a
// 200-byte file whose second 100 bytes are block 3's.
func TestLeaseRecoveryKeepsAPrefix(t *testing.T) {
	nn, clk, names := newTestNN(t)
	const path = "/holed"
	if _, err := nn.Create(nnapi.CreateReq{Path: path, Client: "ghost", Replication: 3, BlockSize: 64 << 20}); err != nil {
		t.Fatal(err)
	}
	var located []block.LocatedBlock
	var prev block.Block
	for i := 0; i < 3; i++ {
		r, err := nn.AddBlock(nnapi.AddBlockReq{Path: path, Client: "ghost", Mode: proto.ModeSmarth, Previous: prev})
		if err != nil {
			t.Fatal(err)
		}
		located = append(located, r.Located)
		prev = r.Located.Block
	}
	for _, lb := range []block.LocatedBlock{located[0], located[2]} {
		b := lb.Block
		b.NumBytes = 100
		if _, err := nn.BlockReceived(nnapi.BlockReceivedReq{Name: lb.Targets[0].Name, Block: b}); err != nil {
			t.Fatal(err)
		}
	}

	dropped, holder := located[2].Block.ID, located[2].Targets[0].Name
	invalidated := false
	for elapsed := time.Duration(0); elapsed < DefaultLeaseTimeout+DefaultExpiry; elapsed += core.HeartbeatInterval {
		clk.advance(core.HeartbeatInterval)
		for _, n := range names {
			hb, err := nn.Heartbeat(nnapi.HeartbeatReq{Name: n})
			if err != nil {
				t.Fatal(err)
			}
			for _, b := range hb.Invalidate {
				invalidated = invalidated || (n == holder && b.ID == dropped)
			}
		}
	}
	info, _ := nn.GetFileInfo(nnapi.GetFileInfoReq{Path: path})
	if ids := nn.ns.files[path].blocks; !info.Complete || info.Len != 100 || !slices.Equal(ids, []block.ID{located[0].Block.ID}) {
		t.Fatalf("recovered file: complete %v, blocks %v, %d bytes; want complete, [%d], 100 bytes", info.Complete, ids, info.Len, located[0].Block.ID)
	}
	if !invalidated {
		t.Fatalf("%s was never told to delete its replica of dropped block %d", holder, dropped)
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

// TestLeaseIsTheHolders: a lease is the client's, not a file's, as
// HDFS's holder lease is: a writer that keeps calling addBlock on one
// file keeps every file it holds open, though it never heartbeats.
func TestLeaseIsTheHolders(t *testing.T) {
	nn, clk, names := newTestNN(t)
	for _, path := range []string{"/busy", "/idle"} {
		if _, err := nn.Create(nnapi.CreateReq{Path: path, Client: "writer", Replication: 3, BlockSize: 64 << 20}); err != nil {
			t.Fatal(err)
		}
	}
	for waited := time.Duration(0); waited < 2*DefaultLeaseTimeout; waited += DefaultExpiry / 2 {
		clk.advance(DefaultExpiry / 2)
		if _, err := nn.AddBlock(nnapi.AddBlockReq{Path: "/busy", Client: "writer"}); err != nil {
			t.Fatal(err)
		}
		beatAll(t, nn, names)
	}
	if info, _ := nn.GetFileInfo(nnapi.GetFileInfoReq{Path: "/idle"}); info.Complete {
		t.Fatal("a writer that kept calling addBlock lost the lease on its other open file")
	}
	if _, err := nn.AddBlock(nnapi.AddBlockReq{Path: "/idle", Client: "writer"}); err != nil {
		t.Fatalf("addBlock on the writer's other open file: %v", err)
	}
}
