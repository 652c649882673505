package namenode

import (
	"testing"
	"time"

	"repro/internal/nnapi"
)

// TestSpeedRegistryForgetsSilentClients: a client's speed table leaves
// the namenode once the client holds no lease and has been silent for
// the lease timeout; one that keeps heartbeating, or still writes, keeps
// its records.
func TestSpeedRegistryForgetsSilentClients(t *testing.T) {
	nn, clk, names := newTestNN(t)
	speeds := map[string]float64{names[0]: 100, names[1]: 50}
	heartbeat := func(client string) {
		t.Helper()
		if _, err := nn.ClientHeartbeat(nnapi.ClientHeartbeatReq{Client: client, Speeds: speeds}); err != nil {
			t.Fatal(err)
		}
	}
	// put-1 uploads a file and exits; steady keeps heartbeating; writer
	// goes quiet with a file open, and addBlock keeps its lease fresh.
	for _, c := range []string{"put-1", "steady", "writer"} {
		heartbeat(c)
	}
	if _, err := nn.Create(nnapi.CreateReq{Path: "/open", Client: "writer", Replication: 1, BlockSize: 1 << 20}); err != nil {
		t.Fatal(err)
	}
	// The maintenance tick rides on datanode heartbeats.
	for waited := time.Duration(0); waited <= DefaultLeaseTimeout; waited += DefaultExpiry / 2 {
		clk.advance(DefaultExpiry / 2)
		heartbeat("steady")
		if _, err := nn.AddBlock(nnapi.AddBlockReq{Path: "/open", Client: "writer"}); err != nil {
			t.Fatal(err)
		}
		beatAll(t, nn, names)
	}
	if nn.Registry().HasRecords("put-1") {
		t.Errorf("put-1 has been silent for %v and holds no lease, but its speed records are still there", DefaultLeaseTimeout)
	}
	if !nn.Registry().HasRecords("steady") {
		t.Error("a client that keeps heartbeating lost its speed records")
	}
	if !nn.Registry().HasRecords("writer") {
		t.Error("a client with a live lease lost its speed records")
	}
}

// TestEmptiedLeaseMapsAreDropped: a client's lease map outlives its
// last lease, so its next file reuses it, and the maintenance tick
// drops it with the client: at once for one that never heartbeats, and
// once it has been silent for the lease timeout for one that does.
func TestEmptiedLeaseMapsAreDropped(t *testing.T) {
	nn, clk, names := newTestNN(t)
	if _, err := nn.ClientHeartbeat(nnapi.ClientHeartbeatReq{Client: "steady", Speeds: map[string]float64{names[0]: 1}}); err != nil {
		t.Fatal(err)
	}
	for _, c := range []string{"steady", "quiet"} {
		path := "/" + c
		if _, err := nn.Create(nnapi.CreateReq{Path: path, Client: c, Replication: 1, BlockSize: 1 << 20}); err != nil {
			t.Fatal(err)
		}
		if _, err := nn.Delete(nnapi.DeleteReq{Path: path}); err != nil {
			t.Fatal(err)
		}
		if byPath, ok := nn.ns.leases[c]; !ok || len(byPath) != 0 {
			t.Fatalf("%s: lease map after its only file went = %v, %v; want kept and empty", c, byPath, ok)
		}
	}
	tick := func() {
		clk.advance(DefaultExpiry / 2)
		beatAll(t, nn, names)
	}
	tick()
	if _, ok := nn.ns.leases["quiet"]; ok {
		t.Error("a client that never heartbeats kept its emptied lease map past a maintenance tick")
	}
	if _, ok := nn.ns.leases["steady"]; !ok {
		t.Error("a client heard from just now lost its lease map")
	}
	for waited := DefaultExpiry / 2; waited <= DefaultLeaseTimeout; waited += DefaultExpiry / 2 {
		tick()
	}
	if _, ok := nn.ns.leases["steady"]; ok || nn.Registry().HasRecords("steady") {
		t.Errorf("silent for %v with no lease, steady still has a lease map (%v) or speed records (%v)", DefaultLeaseTimeout, ok, nn.Registry().HasRecords("steady"))
	}
}
