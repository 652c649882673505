package namenode

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/block"
	"repro/internal/nnapi"
	"repro/internal/proto"
)

// TestConcurrentWriterLifecycles runs full write lifecycles from many
// goroutines against one namenode — the tier-1 race check for the
// namesystem (run under -race by the race target).
func TestConcurrentWriterLifecycles(t *testing.T) {
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
	if n := len(nn.ns.files); n != 0 {
		t.Fatalf("%d files left after all writers deleted theirs", n)
	}
}

// TestRenameAcrossDirectoriesMovesLease renames an under-construction
// file between directories and verifies the writer's lease followed it:
// addBlock works on the new path, and lease renewal via heartbeat still
// reaches the inode.
func TestRenameAcrossDirectoriesMovesLease(t *testing.T) {
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
	nn.expireLeases(clk.Now())
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

// flipFile completes /a/f with one replicated block and starts a
// goroutine that renames it /a/f → /b/f → /a/f until the returned stop
// is called. It returns the file's block.
func flipFile(t *testing.T, nn *Namenode) (blk block.Block, stop func()) {
	t.Helper()
	completeFileWithReplicas(t, nn, "/a/f", [][]string{{"dn1", "dn2", "dn3"}})
	locs, err := nn.GetBlockLocations(nnapi.GetBlockLocationsReq{Path: "/a/f"})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	flipped := make(chan error, 1)
	go func() {
		src, dst := "/a/f", "/b/f"
		for {
			select {
			case <-done:
				flipped <- nil
				return
			default:
			}
			if _, err := nn.Rename(nnapi.RenameReq{Src: src, Dst: dst}); err != nil {
				flipped <- err
				return
			}
			src, dst = dst, src
		}
	}()
	return locs.Blocks[0].Block, func() {
		close(done)
		if err := <-flipped; err != nil {
			t.Fatal(err)
		}
	}
}

// TestListIsPointInTime lists the namespace while a file flips between
// two directories: every listing holds the file exactly once, at one of
// its two paths, never at both or neither.
func TestListIsPointInTime(t *testing.T) {
	nn, _, _ := newTestNN(t)
	_, stop := flipFile(t, nn)
	defer stop()
	bad := 0
	const lists = 20000
	for i := 0; i < lists; i++ {
		resp, err := nn.List(nnapi.ListReq{Prefix: "/"})
		if err != nil {
			t.Fatal(err)
		}
		if len(resp.Files) != 1 {
			bad++
		}
	}
	if bad > 0 {
		t.Fatalf("%d of %d listings did not hold exactly one file", bad, lists)
	}
}

// TestSaveImageIsPointInTime checkpoints the namespace while a file
// flips between two directories and loads each image into a fresh
// namenode: every image holds the file exactly once, with its block.
func TestSaveImageIsPointInTime(t *testing.T) {
	nn, _, _ := newTestNN(t)
	blk, stop := flipFile(t, nn)
	defer stop()
	bad := 0
	const images = 5000
	var img bytes.Buffer
	for i := 0; i < images; i++ {
		img.Reset()
		if err := nn.SaveImage(&img); err != nil {
			t.Fatal(err)
		}
		restored := New(Options{Clock: newTestClock(), Seed: 1})
		if err := restored.LoadImage(&img); err != nil {
			t.Fatal(err)
		}
		resp, err := restored.List(nnapi.ListReq{Prefix: "/"})
		if err != nil {
			t.Fatal(err)
		}
		if len(resp.Files) != 1 {
			bad++
			continue
		}
		locs, err := restored.GetBlockLocations(nnapi.GetBlockLocationsReq{Path: resp.Files[0].Path})
		if err != nil || len(locs.Blocks) != 1 || locs.Blocks[0].Block != blk {
			t.Fatalf("image %d: %s holds blocks %+v (err %v), want [%v]", i, resp.Files[0].Path, locs.Blocks, err, blk)
		}
	}
	if bad > 0 {
		t.Fatalf("%d of %d images did not hold exactly one file", bad, images)
	}
}

// BenchmarkNamesystemParallel times metadata-only file lifecycles —
// create, addBlock, one delta block report per replica, complete,
// delete — called straight into the handlers from b.RunParallel's
// goroutines, each in its own directory under its own client name, so
// -cpu N measures what N concurrent writers cost one another on the
// namenode lock. One op is one lifecycle. Every 64th lifecycle
// heartbeats the datanodes, which drains the invalidations the deletes
// queued, so the cost per op does not grow with b.N.
func BenchmarkNamesystemParallel(b *testing.B) {
	nn, _, names := newTestNN(b)
	var writers atomic.Int64
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		w := writers.Add(1)
		client := fmt.Sprintf("w%d", w)
		for i := 0; pb.Next(); i++ {
			path := fmt.Sprintf("/w%d/f%d", w, i)
			if _, err := nn.Create(nnapi.CreateReq{Path: path, Client: client, Replication: 3, BlockSize: 1 << 20}); err != nil {
				b.Error(err)
				return
			}
			resp, err := nn.AddBlock(nnapi.AddBlockReq{Path: path, Client: client})
			if err != nil {
				b.Error(err)
				return
			}
			blk := resp.Located.Block
			blk.NumBytes = 1 << 20
			for _, dn := range resp.Located.Targets {
				if _, err := nn.BlockReceivedBatch(nnapi.BlockReceivedBatchReq{Name: dn.Name, Blocks: []block.Block{blk}}); err != nil {
					b.Error(err)
					return
				}
			}
			if done, err := nn.Complete(nnapi.CompleteReq{Path: path, Client: client}); err != nil || !done.Done {
				b.Errorf("complete %s: done=%v err=%v", path, done.Done, err)
				return
			}
			if _, err := nn.Delete(nnapi.DeleteReq{Path: path}); err != nil {
				b.Error(err)
				return
			}
			if i%64 == 63 {
				for _, dn := range names {
					if _, err := nn.Heartbeat(nnapi.HeartbeatReq{Name: dn}); err != nil {
						b.Error(err)
						return
					}
				}
			}
		}
	})
}

// BenchmarkClientHeartbeat times one client heartbeat with a speed
// table for the nine datanodes, called straight into the handler, from
// a client that holds open under-construction files: the heartbeat
// renews the client's one lease, however many files it holds.
func BenchmarkClientHeartbeat(b *testing.B) {
	for _, open := range []int{1, 1000} {
		b.Run(fmt.Sprintf("open=%d", open), func(b *testing.B) {
			nn, _, names := newTestNN(b)
			for i := 0; i < open; i++ {
				if _, err := nn.Create(nnapi.CreateReq{Path: fmt.Sprintf("/hb/f%d", i), Client: "writer", Replication: 3, BlockSize: 1 << 20}); err != nil {
					b.Fatal(err)
				}
			}
			req := nnapi.ClientHeartbeatReq{Client: "writer", Speeds: make(map[string]float64, len(names))}
			for i, dn := range names {
				req.Speeds[dn] = float64(10 * (i + 1))
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := nn.ClientHeartbeat(req); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestAllocBlockMapHeap is the namenode's memory budget per block: the
// live heap that 16,384 complete single-block R3 files hold, each made
// by direct calls from create to its third replica's report, measured
// after a collection. It reads 362 B a file on Go 1.24 (554 B when a
// block's holders were a map); the budget is 420.
func TestAllocBlockMapHeap(t *testing.T) {
	if raceEnabled {
		t.Skip("heap sizes are not meaningful under -race")
	}
	const files, budget = 16384, 420
	nn, _, _ := newTestNN(t)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < files; i++ {
		path := fmt.Sprintf("/heap/d%03d/f%d", i%512, i)
		if _, err := nn.Create(nnapi.CreateReq{Path: path, Client: "c", Replication: 3, BlockSize: 1 << 20}); err != nil {
			t.Fatal(err)
		}
		resp, err := nn.AddBlock(nnapi.AddBlockReq{Path: path, Client: "c"})
		if err != nil {
			t.Fatal(err)
		}
		blk := resp.Located.Block
		blk.NumBytes = 1 << 20
		for _, dn := range resp.Located.Targets {
			if _, err := nn.BlockReceived(nnapi.BlockReceivedReq{Name: dn.Name, Block: blk}); err != nil {
				t.Fatal(err)
			}
		}
		if done, err := nn.Complete(nnapi.CompleteReq{Path: path, Client: "c"}); err != nil || !done.Done {
			t.Fatalf("complete %s: done=%v err=%v", path, done.Done, err)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(nn)
	perFile := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / files
	t.Logf("%.0f B of live heap per single-block R3 file", perFile)
	if perFile > budget {
		t.Errorf("%.0f B of live heap per single-block R3 file, budget %d", perFile, budget)
	}
}
