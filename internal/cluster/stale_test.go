package cluster

import (
	"bytes"
	"fmt"
	"io"
	"sync"
	"testing"
	"time"

	"repro/internal/block"
	"repro/internal/nnapi"
	"repro/internal/storage"
)

// TestStaleStreamCannotEvictRecoveredReplica is the fault behind
// TestTraceFaultProducesRecoverySpan's flake, made deterministic. dn2 is
// frozen before block 2's setup, so dn1 gives its mirror up and the
// client recovers block 2 under a bumped generation on dn1 and dn3, while
// dn2 still holds dn1's connection with the old generation's header
// unread. Once dn3 has committed the recovered replica, dn2 thaws and
// forwards that stale header to dn3, which must refuse it and keep the
// recovered replica through the stale stream's end.
func TestStaleStreamCannotEvictRecoveredReplica(t *testing.T) {
	stores := map[string]*settleWatch{}
	c, fn, cl := startHangCluster(t, Config{
		// dn1 gives its mirror up, and names it, before the client's
		// 500 ms Progress bound fires.
		DatanodeDataTimeout: 200 * time.Millisecond,
		// A frozen dn2 stays alive at the namenode, so block 2 is placed on it.
		Expiry: time.Minute,
		NewStore: func(name string) (storage.Store, error) {
			stores[name] = &settleWatch{Store: storage.NewMemStore()}
			return stores[name], nil
		},
	})
	t.Cleanup(func() { fn.Thaw("dn2") })
	blockSize := int(hangWriteOptions().BlockSize)
	data := randomData(9, 2*blockSize)
	w, err := cl.CreateSmarth("/stale-stream", hangWriteOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(data[:blockSize]); err != nil {
		t.Fatal(err)
	}
	dn3 := stores["dn3"]
	waitFor(t, 10*time.Second, "block 1 through the whole pipeline", func() bool {
		return len(dn3.Blocks()) == 1 && w.Stats().ActivePipelines == 0
	})
	fn.Freeze("dn2")
	if _, err := w.Write(data[blockSize:]); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if w.Stats().Recoveries == 0 {
		t.Fatal("block 2 went through without a recovery: dn2 was not in its pipeline")
	}
	locs, err := c.NN.GetBlockLocations(nnapi.GetBlockLocationsReq{Path: "/stale-stream", Client: "client"})
	if err != nil || len(locs.Blocks) != 2 {
		t.Fatalf("locations: %+v, %v", locs, err)
	}
	recovered := locs.Blocks[1].Block
	waitFor(t, 10*time.Second, fmt.Sprintf("dn3 to commit %v", recovered), func() bool {
		info, err := dn3.Info(recovered.ID)
		return err == nil && info.State == storage.Finalized && info.Block.Gen == recovered.Gen
	})
	fn.Thaw("dn2")
	waitFor(t, 10*time.Second, "dn2's stale stream to reach dn3 and end there", func() bool {
		return dn3.settledBelow(recovered)
	})
	r, _, err := dn3.Open(recovered.ID)
	if err != nil {
		t.Fatalf("dn3 lost %v to the stale stream: %v", recovered, err)
	}
	got, err := io.ReadAll(r)
	r.Close()
	if err != nil || !bytes.Equal(got, data[blockSize:]) {
		t.Fatalf("dn3's %v reads back %d bytes (%v) that are not block 2's", recovered, len(got), err)
	}
	verifyFile(t, cl, "/stale-stream", data)
}

// settleWatch is a store that remembers every Create it refused and every
// writer it saw closed, so a test can wait for a pipeline to have ended
// at its datanode.
type settleWatch struct {
	storage.Store
	mu      sync.Mutex
	settled []block.Block
}

type settleWriter struct {
	storage.BlockWriter
	s *settleWatch
	b block.Block
}

func (s *settleWatch) Create(b block.Block, overwrite bool) (storage.BlockWriter, error) {
	w, err := s.Store.Create(b, overwrite)
	if err != nil {
		s.settle(b)
		return nil, err
	}
	return &settleWriter{BlockWriter: w, s: s, b: b}, nil
}

func (w *settleWriter) SizeHint(n int64) { w.BlockWriter.(storage.SizeHinter).SizeHint(n) }

func (w *settleWriter) Close() error {
	err := w.BlockWriter.Close()
	w.s.settle(w.b)
	return err
}

func (s *settleWatch) settle(b block.Block) {
	s.mu.Lock()
	s.settled = append(s.settled, b)
	s.mu.Unlock()
}

// settledBelow reports whether a pipeline for an older generation of b
// has ended here: its Create refused, or its writer closed.
func (s *settleWatch) settledBelow(b block.Block) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, got := range s.settled {
		if got.ID == b.ID && got.Gen < b.Gen {
			return true
		}
	}
	return false
}
