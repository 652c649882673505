package cluster

import (
	"bytes"
	"testing"

	"repro/internal/obs"
	"repro/internal/proto"
)

// startObsCluster is startTestCluster plus a shared observability
// registry, so control-plane tests can read the RPC and cache counters.
func startObsCluster(t *testing.T, numDN int) (*Cluster, *obs.Obs) {
	t.Helper()
	o := obs.New(nil)
	c, err := Start(Config{
		NumDatanodes: numDN,
		RackFor: func(i int) string {
			if i%2 == 0 {
				return "/rack-a"
			}
			return "/rack-b"
		},
		Seed: 7,
		Obs:  o,
		Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Stop)
	return c, o
}

// TestMetaCacheCoherence proves the client metadata cache serves repeat
// opens without going stale across local mutations: the second read
// hits the cache, and an overwrite invalidates so the third read
// returns the new bytes.
func TestMetaCacheCoherence(t *testing.T) {
	c, o := startObsCluster(t, 9)
	cl, err := c.NewClient("reader")
	if err != nil {
		t.Fatal(err)
	}
	v1 := randomData(5, 600<<10)
	writeFile(t, cl, "/cached", v1, proto.ModeSmarth)
	verifyFile(t, cl, "/cached", v1) // populates the cache
	verifyFile(t, cl, "/cached", v1) // must be served from it
	comp := o.Component("client/reader")
	if n := comp.Counter("meta_cache_hits").Load(); n == 0 {
		t.Error("repeat open did not hit the metadata cache")
	}

	v2 := randomData(6, 300<<10)
	opts := testWriteOptions(proto.ModeSmarth)
	opts.Overwrite = true
	w, err := cl.CreateSmarth("/cached", opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(v2); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if n := comp.Counter("meta_cache_invalidations").Load(); n == 0 {
		t.Error("overwrite did not invalidate the cached locations")
	}
	got, err := cl.ReadAll("/cached")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, v2) {
		t.Fatalf("read after overwrite returned %d bytes, want %d — stale cache", len(got), len(v2))
	}
}
