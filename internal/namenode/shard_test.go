package namenode

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/block"
	"repro/internal/nnapi"
	"repro/internal/proto"
)

// TestShardRouting pins the routing contract: files sharing a parent
// directory land on one shard (their operations serialize, like a
// directory lock), distinct directories spread across shards, and the
// shard count rounds up to a power of two.
func TestShardRouting(t *testing.T) {
	ns := newNamesystem(16, nil)
	if len(ns.shards) != 16 {
		t.Fatalf("got %d shards, want 16", len(ns.shards))
	}
	if got := len(newNamesystem(9, nil).shards); got != 16 {
		t.Fatalf("shard count 9 rounded to %d, want 16", got)
	}
	if got := len(newNamesystem(0, nil).shards); got != 1 {
		t.Fatalf("shard count 0 gave %d shards, want 1", got)
	}

	if ns.shardFor("/dir/a") != ns.shardFor("/dir/b") {
		t.Error("files in one directory routed to different shards")
	}
	distinct := make(map[*nsShard]bool)
	for i := 0; i < 64; i++ {
		distinct[ns.shardFor(fmt.Sprintf("/d%02d/f", i))] = true
	}
	if len(distinct) < 8 {
		t.Errorf("64 directories hit only %d of 16 shards", len(distinct))
	}
}

// TestConcurrentWritersAcrossShards runs full write lifecycles from many
// goroutines against one namenode — the tier-1 race check for the
// sharded namesystem (run under -race by the race target).
func TestConcurrentWritersAcrossShards(t *testing.T) {
	nn, _, names := newTestNN(t)
	const writers = 16
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			client := fmt.Sprintf("c%d", w)
			for f := 0; f < 4; f++ {
				path := fmt.Sprintf("/w%d/f%d", w, f)
				if _, err := nn.Create(nnapi.CreateReq{Path: path, Client: client, Replication: 3, BlockSize: 1 << 20}); err != nil {
					errs <- err
					return
				}
				var prev block.Block
				for b := 0; b < 3; b++ {
					if _, err := nn.ClientHeartbeat(nnapi.ClientHeartbeatReq{Client: client}); err != nil {
						errs <- err
						return
					}
					resp, err := nn.AddBlock(nnapi.AddBlockReq{Path: path, Client: client, Mode: proto.ModeSmarth, Previous: prev})
					if err != nil {
						errs <- err
						return
					}
					prev = resp.Located.Block
					got := resp.Located.Block
					got.NumBytes = 1 << 20
					if _, err := nn.BlockReceived(nnapi.BlockReceivedReq{Name: names[w%len(names)], Block: got}); err != nil {
						errs <- err
						return
					}
				}
				if resp, err := nn.Complete(nnapi.CompleteReq{Path: path, Client: client}); err != nil || !resp.Done {
					errs <- fmt.Errorf("complete %s: done=%v err=%v", path, err, err)
					return
				}
				if _, err := nn.Delete(nnapi.DeleteReq{Path: path}); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if n := nn.ns.fileCount(); n != 0 {
		t.Fatalf("%d files left after all writers deleted theirs", n)
	}
}

// TestRenameAcrossShardsMovesLease renames an under-construction file
// between directories (hence shards) and verifies the writer's lease
// followed it: addBlock works on the new path, and lease renewal via
// heartbeat still reaches the inode.
func TestRenameAcrossShardsMovesLease(t *testing.T) {
	nn, clk, names := newTestNN(t)
	if _, err := nn.Create(nnapi.CreateReq{Path: "/a/f", Client: "c1", Replication: 3, BlockSize: 1 << 20}); err != nil {
		t.Fatal(err)
	}
	if _, err := nn.Rename(nnapi.RenameReq{Src: "/a/f", Dst: "/zz42/f"}); err != nil {
		t.Fatal(err)
	}
	if _, err := nn.AddBlock(nnapi.AddBlockReq{Path: "/zz42/f", Client: "c1"}); err != nil {
		t.Fatalf("addBlock on renamed path: %v", err)
	}
	// Renewal must reach the moved inode: sit just under the lease
	// timeout, heartbeat, advance again — the lease must survive, so the
	// maintenance scan recovers nothing.
	clk.advance(DefaultLeaseTimeout - time.Second)
	if _, err := nn.ClientHeartbeat(nnapi.ClientHeartbeatReq{Client: "c1"}); err != nil {
		t.Fatal(err)
	}
	clk.advance(DefaultLeaseTimeout - time.Second)
	nn.ns.recoverExpired(clk.Now(), DefaultLeaseTimeout)
	beatAll(t, nn, names) // keep datanodes alive across the clock jumps
	if _, err := nn.AddBlock(nnapi.AddBlockReq{Path: "/zz42/f", Client: "c1"}); err != nil {
		t.Fatalf("lease lost after rename + renewal: %v", err)
	}
}

// TestAddBlockPlacesOnJustPushedSpeeds pins the ordering contract the
// client's FIFO RPC worker depends on: a clientHeartbeat followed by an
// addBlock places on the speed records the heartbeat just pushed. If the
// heartbeat were not applied first, the namenode would have no records
// for the client and fall back to uniform-random placement — over 8
// rounds the first targets would stray from the TopN set with
// overwhelming probability.
func TestAddBlockPlacesOnJustPushedSpeeds(t *testing.T) {
	nn, _, names := newTestNN(t)
	speeds := make(map[string]float64, len(names))
	top := map[string]bool{}
	for i, n := range names {
		speeds[n] = float64(10 * (i + 1))
		if i >= len(names)-3 { // TopN with 9 nodes / replication 3 = 3
			top[n] = true
		}
	}
	for f := 0; f < 8; f++ {
		path := fmt.Sprintf("/b/f%d", f)
		client := fmt.Sprintf("writer%d", f) // a fresh client: no records before its heartbeat
		if _, err := nn.Create(nnapi.CreateReq{Path: path, Client: client, Replication: 3, BlockSize: 1 << 20}); err != nil {
			t.Fatal(err)
		}
		if _, err := nn.ClientHeartbeat(nnapi.ClientHeartbeatReq{Client: client, Speeds: speeds}); err != nil {
			t.Fatal(err)
		}
		resp, err := nn.AddBlock(nnapi.AddBlockReq{Path: path, Client: client, Mode: proto.ModeSmarth})
		if err != nil {
			t.Fatal(err)
		}
		if first := resp.Located.Targets[0].Name; !top[first] {
			t.Fatalf("file %d: first target %s not in TopN %v — placement did not read the heartbeat's speeds", f, first, top)
		}
	}
}

// TestBlockReceivedBatchRejectsStale checks the delta block report: in
// one frame, current-generation replicas register and stale-generation
// ones are counted rejected and scheduled for deletion — identical to
// what the per-block RPC would have done.
func TestBlockReceivedBatchRejectsStale(t *testing.T) {
	nn, _, names := newTestNN(t)
	if _, err := nn.Create(nnapi.CreateReq{Path: "/f", Client: "c1", Replication: 1, BlockSize: 1 << 20}); err != nil {
		t.Fatal(err)
	}
	resp, err := nn.AddBlock(nnapi.AddBlockReq{Path: "/f", Client: "c1"})
	if err != nil {
		t.Fatal(err)
	}
	good := resp.Located.Block
	good.NumBytes = 1 << 20
	stale := good
	stale.Gen-- // a generation the namenode has already moved past
	br, err := nn.BlockReceivedBatch(nnapi.BlockReceivedBatchReq{
		Name:   names[0],
		Blocks: []block.Block{stale, good},
	})
	if err != nil {
		t.Fatal(err)
	}
	if br.Rejected != 1 {
		t.Fatalf("Rejected = %d, want 1", br.Rejected)
	}
	if done, err := nn.Complete(nnapi.CompleteReq{Path: "/f", Client: "c1"}); err != nil || !done.Done {
		t.Fatalf("good replica in the same frame was not registered: done=%v err=%v", done.Done, err)
	}
}
