package client

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/block"
	"repro/internal/clock"
	"repro/internal/nnapi"
	"repro/internal/obs"
	"repro/internal/rpc"
	"repro/internal/transport"
)

func newTestMetaCache(ttl time.Duration, size int) (*metaCache, *clock.Manual, *obs.Component) {
	clk := clock.NewManual(time.Unix(1000, 0))
	comp := obs.New(clk).Component("client/test")
	return newMetaCache(clk, ttl, size, comp), clk, comp
}

func locResp(id block.ID) nnapi.GetBlockLocationsResp {
	return nnapi.GetBlockLocationsResp{
		Blocks: []block.LocatedBlock{{Block: block.Block{ID: id, Gen: 1}}},
	}
}

func TestMetaCacheTTLExpiry(t *testing.T) {
	mc, clk, comp := newTestMetaCache(time.Second, 8)
	mc.put("/f", locResp(7), mc.epoch)
	if got, _, ok := mc.get("/f"); !ok || got.Blocks[0].Block.ID != 7 {
		t.Fatalf("fresh entry not served: ok=%v", ok)
	}
	clk.Advance(time.Second) // exactly TTL: entry is stale
	if _, _, ok := mc.get("/f"); ok {
		t.Fatal("expired entry served")
	}
	if h, m := comp.Counter("meta_cache_hits").Load(), comp.Counter("meta_cache_misses").Load(); h != 1 || m != 1 {
		t.Fatalf("hits=%d misses=%d, want 1/1", h, m)
	}
}

func TestMetaCacheLRUEviction(t *testing.T) {
	mc, _, _ := newTestMetaCache(time.Minute, 2)
	mc.put("/a", locResp(1), mc.epoch)
	mc.put("/b", locResp(2), mc.epoch)
	if _, _, ok := mc.get("/a"); !ok { // touch /a so /b is the LRU victim
		t.Fatal("/a missing before eviction")
	}
	mc.put("/c", locResp(3), mc.epoch)
	if _, _, ok := mc.get("/b"); ok {
		t.Fatal("LRU entry /b survived eviction")
	}
	for _, p := range []string{"/a", "/c"} {
		if _, _, ok := mc.get(p); !ok {
			t.Fatalf("%s evicted, want /b only", p)
		}
	}
}

func TestMetaCacheInvalidate(t *testing.T) {
	mc, _, comp := newTestMetaCache(time.Minute, 8)
	mc.put("/f", locResp(1), mc.epoch)
	mc.invalidate("/f")
	mc.invalidate("/absent") // no entry: must not count
	if _, _, ok := mc.get("/f"); ok {
		t.Fatal("invalidated entry served")
	}
	if n := comp.Counter("meta_cache_invalidations").Load(); n != 1 {
		t.Fatalf("invalidations=%d, want 1", n)
	}
}

func TestMetaCachePutRefreshes(t *testing.T) {
	mc, clk, _ := newTestMetaCache(time.Second, 8)
	mc.put("/f", locResp(1), mc.epoch)
	clk.Advance(900 * time.Millisecond)
	mc.put("/f", locResp(2), mc.epoch) // re-put resets the TTL and the payload
	clk.Advance(900 * time.Millisecond)
	got, _, ok := mc.get("/f")
	if !ok {
		t.Fatal("refreshed entry expired on the original fetch time")
	}
	if got.Blocks[0].Block.ID != 2 {
		t.Fatalf("stale payload %d after re-put", got.Blocks[0].Block.ID)
	}
}

// TestMetaCacheDropsLookupStraddlingDelete holds a getBlockLocations
// reply at a stub namenode until another goroutine's Delete of the same
// path has returned. The reply describes the file as it was before the
// delete, so it must not be cached: the next lookup has to miss and ask
// the namenode again.
func TestMetaCacheDropsLookupStraddlingDelete(t *testing.T) {
	n := transport.NewMemNetwork(nil)
	s := rpc.NewServer()
	rpc.Handle(s, nnapi.MethodClientHeartbeat, func(nnapi.ClientHeartbeatReq) (nnapi.ClientHeartbeatResp, error) {
		return nnapi.ClientHeartbeatResp{}, nil
	})
	entered, release := make(chan struct{}, 1), make(chan struct{})
	var deleted atomic.Bool
	rpc.Handle(s, nnapi.MethodGetBlockLocations, func(nnapi.GetBlockLocationsReq) (nnapi.GetBlockLocationsResp, error) {
		if deleted.Load() {
			return nnapi.GetBlockLocationsResp{}, errors.New("file not found")
		}
		entered <- struct{}{}
		<-release
		return locResp(7), nil
	})
	rpc.Handle(s, nnapi.MethodDelete, func(nnapi.DeleteReq) (nnapi.DeleteResp, error) {
		deleted.Store(true)
		return nnapi.DeleteResp{Deleted: true}, nil
	})
	l, err := n.Listen("nn")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(l)
	t.Cleanup(s.Close)
	cl, err := New(Options{Name: "client", NamenodeAddr: "nn", Network: n, HeartbeatInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })

	looked := make(chan error, 1)
	go func() {
		_, err := cl.getBlockLocations("/f")
		looked <- err
	}()
	<-entered // the lookup has read the namenode's pre-delete state
	if ok, err := cl.Delete("/f"); err != nil || !ok {
		t.Fatalf("Delete = %v, %v", ok, err)
	}
	close(release)
	if err := <-looked; err != nil {
		t.Fatalf("straddling lookup: %v", err)
	}
	if resp, err := cl.getBlockLocations("/f"); err == nil {
		t.Fatalf("lookup after Delete served the deleted file's locations from the cache: %+v", resp)
	}
}
