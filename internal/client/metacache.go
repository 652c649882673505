package client

import (
	"container/list"
	"sync"
	"time"

	"repro/internal/clock"
	"repro/internal/nnapi"
	"repro/internal/obs"
)

// Metadata-cache geometry.
const (
	// DefaultMetaCacheTTL is short on purpose: it absorbs the re-open /
	// re-stat bursts of read-heavy workloads without letting another
	// client's mutations go unseen for long. Local mutations invalidate
	// immediately and never wait out the TTL.
	DefaultMetaCacheTTL = time.Second
	// DefaultMetaCacheSize caps cached paths; LRU beyond that.
	DefaultMetaCacheSize = 256
)

// metaCache memoizes getBlockLocations responses per path. Entries
// expire after a TTL and on any local mutation of the path, so the only
// staleness a reader can observe is a remote client's mutation inside
// the TTL window — the same window an uncached reader races anyway
// between its RPC and its first byte. Reads of located blocks never
// refetch mid-stream (failover walks the replica list it was given),
// so a cached response is exactly as good as a fresh one.
type metaCache struct {
	mu      sync.Mutex
	clk     clock.Clock
	ttl     time.Duration
	max     int
	entries map[string]*list.Element
	lru     *list.List // front = most recently used
	// epoch counts invalidations of any path. A lookup notes it on its
	// miss and put refuses the response if it has moved, so a response
	// fetched before a local mutation is never cached after it. One
	// counter for all paths: per-path history would have to outlive the
	// entries, and a refused put only costs the next lookup an RPC.
	epoch uint64

	mHits          *obs.Counter
	mMisses        *obs.Counter
	mInvalidations *obs.Counter
}

type metaEntry struct {
	path    string
	resp    nnapi.GetBlockLocationsResp
	fetched time.Time
}

// newMetaCache builds a cache. comp may be nil (counters degrade to
// no-ops).
func newMetaCache(clk clock.Clock, ttl time.Duration, size int, comp *obs.Component) *metaCache {
	return &metaCache{
		clk:            clk,
		ttl:            ttl,
		max:            size,
		entries:        make(map[string]*list.Element),
		lru:            list.New(),
		mHits:          comp.Counter("meta_cache_hits"),
		mMisses:        comp.Counter("meta_cache_misses"),
		mInvalidations: comp.Counter("meta_cache_invalidations"),
	}
}

// get returns a fresh cached response for path, if any. On a miss it
// returns the invalidation epoch to hand to put with the fetched
// response.
func (mc *metaCache) get(path string) (nnapi.GetBlockLocationsResp, uint64, bool) {
	mc.mu.Lock()
	defer mc.mu.Unlock()
	el, ok := mc.entries[path]
	if !ok {
		mc.mMisses.Inc()
		return nnapi.GetBlockLocationsResp{}, mc.epoch, false
	}
	e := el.Value.(*metaEntry)
	if mc.clk.Now().Sub(e.fetched) >= mc.ttl {
		mc.removeLocked(el)
		mc.mMisses.Inc()
		return nnapi.GetBlockLocationsResp{}, mc.epoch, false
	}
	mc.lru.MoveToFront(el)
	mc.mHits.Inc()
	return e.resp, mc.epoch, true
}

// put records a response for path, evicting the LRU entry when full. It
// drops the response when any path was invalidated since the get that
// returned epoch: the fetch may have read the namenode before that
// mutation.
func (mc *metaCache) put(path string, resp nnapi.GetBlockLocationsResp, epoch uint64) {
	mc.mu.Lock()
	defer mc.mu.Unlock()
	if epoch != mc.epoch {
		return
	}
	if el, ok := mc.entries[path]; ok {
		e := el.Value.(*metaEntry)
		e.resp = resp
		e.fetched = mc.clk.Now()
		mc.lru.MoveToFront(el)
		return
	}
	for len(mc.entries) >= mc.max {
		mc.removeLocked(mc.lru.Back())
	}
	el := mc.lru.PushFront(&metaEntry{path: path, resp: resp, fetched: mc.clk.Now()})
	mc.entries[path] = el
}

// invalidate drops path from the cache and refuses every lookup now in
// flight (cached or not, the path may have one).
func (mc *metaCache) invalidate(path string) {
	mc.mu.Lock()
	defer mc.mu.Unlock()
	mc.epoch++
	if el, ok := mc.entries[path]; ok {
		mc.removeLocked(el)
		mc.mInvalidations.Inc()
	}
}

func (mc *metaCache) removeLocked(el *list.Element) {
	if el == nil {
		return
	}
	delete(mc.entries, el.Value.(*metaEntry).path)
	mc.lru.Remove(el)
}
