package namenode

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/block"
	"repro/internal/nnapi"
	"repro/internal/proto"
)

// TestEveryMethodUnderOneLock drives every RPC handler, SaveImage, and
// LoadImage into a fresh namenode from four seeded goroutines, in three
// phases: a healthy cluster of nine datanodes; a namenode in safe mode,
// restored from an image whose blocks no datanode has reported yet, so
// each RPC's safe-mode refusal runs concurrently too; and the first
// namenode again once its datanodes have died and one new one took
// over, so placement, recovery, re-replication and the balancer run out
// of datanodes. Together they run every statement under nn.mu but two
// that call nothing (DESIGN.md §13). A method that takes nn.mu while a
// caller already holds it hangs the test: at the deadline it fails with
// every goroutine's stack. Under -race, state touched outside the lock
// is reported. Errors the operations return (a lease held by another
// goroutine's client, a file just deleted, safe mode, no datanodes) are
// part of the mix and not checked; a checkpoint that does not load back
// is.
func TestEveryMethodUnderOneLock(t *testing.T) {
	nn, clk, names := newTestNN(t)
	driveConcurrently(t, nn, clk, names, names)

	// The image holds one complete file; the restored namenode's
	// datanodes register without reporting its blocks, and no worker
	// reports them (its AddBlock is refused, so it holds no block).
	src, _, _ := newTestNN(t)
	completeFileWithReplicas(t, src, "/safe-mode", [][]string{{names[0]}, {names[1]}})
	var img bytes.Buffer
	if err := src.SaveImage(&img); err != nil {
		t.Fatal(err)
	}
	rclk := newTestClock()
	restored := New(Options{Clock: rclk, Seed: 42})
	if err := restored.LoadImage(&img); err != nil {
		t.Fatal(err)
	}
	for _, name := range names {
		if _, err := restored.Register(nnapi.RegisterReq{Name: name, Addr: "mem://" + name, Rack: "/rack-a"}); err != nil {
			t.Fatal(err)
		}
	}
	driveConcurrently(t, restored, rclk, names, names)
	if ci, _ := restored.ClusterInfo(nnapi.ClusterInfoReq{}); !ci.SafeMode {
		t.Fatal("the restored namenode left safe mode: its phase did not drive the refusals")
	}

	// The healthy cluster's namenode again, once its nine datanodes have
	// been silent for an expiry window and a tenth, which holds none of
	// their blocks, heartbeats instead: /lost, written just before, has
	// no live holder left, and placement has one datanode.
	completeFileWithReplicas(t, nn, "/lost", [][]string{{names[1], names[2]}})
	clk.advance(DefaultExpiry)
	if _, err := nn.Register(nnapi.RegisterReq{Name: "dn10", Addr: "mem://dn10", Rack: "/rack-b"}); err != nil {
		t.Fatal(err)
	}
	driveConcurrently(t, nn, clk, names, []string{"dn10"})
}

// driveConcurrently runs driveEveryMethod from four goroutines against
// nn and fails the test at a 30 s deadline with every goroutine's stack.
func driveConcurrently(t *testing.T, nn *Namenode, clk *testClock, names, beating []string) {
	t.Helper()
	const (
		workers = 4
		ops     = 1000
	)
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			if err := driveEveryMethod(nn, clk, names, beating, w, ops); err != nil {
				errs <- err
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		buf := make([]byte, 1<<20)
		t.Fatalf("workers still running after 30 s (a method re-entering nn.mu?):\n%s", buf[:runtime.Stack(buf, true)])
	}
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// driveEveryMethod runs ops random namenode calls as client c<w>, on
// files under /w<w>, seeded by w. The datanodes in beating heartbeat
// and re-register; the rest of names only report blocks. Files under
// /w<w>/gone are created by c<w>-gone, a client that never heartbeats,
// so their leases expire and lease recovery finds several at once.
func driveEveryMethod(nn *Namenode, clk *testClock, names, beating []string, w, ops int) error {
	rng := rand.New(rand.NewSource(int64(w) + 1))
	client := fmt.Sprintf("c%d", w)
	path := func() string { return fmt.Sprintf("/w%d/f%d", w, rng.Intn(4)) }
	dn := func() string { return names[rng.Intn(len(names))] }
	var last block.LocatedBlock // the last block this worker was granted
	var lastPath string         // the file it was granted on
	speeds := make(map[string]float64, len(names))
	for i, n := range names {
		speeds[n] = float64(10 * (i + 1))
	}
	for i := 0; i < ops; i++ {
		switch rng.Intn(21) {
		case 0:
			nn.Create(nnapi.CreateReq{Path: path(), Client: client, Replication: 3, BlockSize: 1 << 20, Overwrite: rng.Intn(2) == 0})
		case 1:
			p := path()
			if resp, err := nn.AddBlock(nnapi.AddBlockReq{Path: p, Client: client, Mode: proto.WriteMode(rng.Intn(2))}); err == nil {
				last, lastPath = resp.Located, p
				if rng.Intn(2) == 0 {
					reportLast(nn, last) // the pipeline succeeded at once
				}
			}
		case 2:
			nn.Complete(nnapi.CompleteReq{Path: path(), Client: client})
		case 3:
			// The pipeline's first k targets survived; the client excludes
			// the rest.
			targets := last.Names()
			k := rng.Intn(len(targets) + 1)
			if resp, err := nn.RecoverBlock(nnapi.RecoverBlockReq{Path: lastPath, Client: client, Block: last.Block, Alive: targets[:k], Exclude: targets[k:]}); err == nil {
				last = resp.Located
			}
		case 4:
			nn.ClientHeartbeat(nnapi.ClientHeartbeatReq{Client: client, Speeds: speeds})
		case 5:
			nn.GetBlockLocations(nnapi.GetBlockLocationsReq{Path: path(), Client: dn()})
		case 6:
			nn.GetFileInfo(nnapi.GetFileInfoReq{Path: path()})
		case 7:
			nn.ClusterInfo(nnapi.ClusterInfoReq{})
		case 8:
			nn.Delete(nnapi.DeleteReq{Path: path()})
		case 9:
			nn.Rename(nnapi.RenameReq{Src: path(), Dst: path()})
		case 10:
			nn.List(nnapi.ListReq{Prefix: fmt.Sprintf("/w%d/", rng.Intn(4))})
		case 11:
			name := beating[rng.Intn(len(beating))]
			nn.Register(nnapi.RegisterReq{Name: name, Addr: "mem://" + name, Rack: "/rack-a", Blocks: []block.Block{last.Block}})
		case 12:
			// Keep the cluster alive, then step the clock a quarter of the
			// expiry window: every few rounds a heartbeat runs the
			// replication scan, lease recovery and client forgetting.
			// Usage is even but for the odd node reporting less, as a
			// new or emptied one would: the balancer then has one
			// receiver, which may already hold a donor's block.
			for _, n := range beating {
				used := int64(1 << 30)
				if rng.Intn(len(beating)) == 0 {
					used = rng.Int63n(used)
				}
				nn.Heartbeat(nnapi.HeartbeatReq{Name: n, UsedBytes: used})
			}
			clk.advance(DefaultExpiry / 4)
		case 13:
			reportLast(nn, last)
		case 14:
			b := last.Block
			b.NumBytes = 1 << 20
			nn.BlockReceivedBatch(nnapi.BlockReceivedBatchReq{Name: dn(), Blocks: []block.Block{b, last.Block}})
		case 15:
			nn.Decommission(nnapi.DecommissionReq{Name: dn(), Cancel: rng.Intn(3) != 0})
		case 16:
			nn.DecommissionStatus(nnapi.DecommStatusReq{Name: dn()})
		case 17:
			nn.Balance(nnapi.BalanceReq{Threshold: 0.05})
		case 18, 19:
			var img bytes.Buffer
			if err := nn.SaveImage(&img); err != nil {
				return fmt.Errorf("worker %d: SaveImage: %v", w, err)
			}
			if err := New(Options{Clock: newTestClock(), Seed: 1}).LoadImage(&img); err != nil {
				return fmt.Errorf("worker %d: LoadImage of a saved image: %v", w, err)
			}
		case 20:
			nn.Create(nnapi.CreateReq{Path: fmt.Sprintf("/w%d/gone%d", w, rng.Intn(4)), Client: client + "-gone", Replication: 3, BlockSize: 1 << 20, Overwrite: true})
		}
	}
	return nil
}

// reportLast has every target of lb report its finalized replica.
func reportLast(nn *Namenode, lb block.LocatedBlock) {
	b := lb.Block
	b.NumBytes = 1 << 20
	for _, target := range lb.Targets {
		nn.BlockReceived(nnapi.BlockReceivedReq{Name: target.Name, Block: b})
	}
}
