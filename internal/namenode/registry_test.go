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

// TestEmptiedLeaseMapsAreDropped: a client's lease outlives its last
// file, as the namenode's record that the client is alive, and goes with
// the client's speed records once the client has been silent for the
// lease timeout, not before — whether it ever heartbeated or not.
func TestEmptiedLeaseMapsAreDropped(t *testing.T) {
	nn, clk, names := newTestNN(t)
	if _, err := nn.ClientHeartbeat(nnapi.ClientHeartbeatReq{Client: "steady", Speeds: map[string]float64{names[0]: 1}}); err != nil {
		t.Fatal(err)
	}
	clients := []string{"steady", "quiet"}
	for _, c := range clients {
		path := "/" + c
		if _, err := nn.Create(nnapi.CreateReq{Path: path, Client: c, Replication: 1, BlockSize: 1 << 20}); err != nil {
			t.Fatal(err)
		}
		if _, err := nn.Delete(nnapi.DeleteReq{Path: path}); err != nil {
			t.Fatal(err)
		}
		if l, ok := nn.ns.leases[c]; !ok || len(l.files) != 0 {
			t.Fatalf("%s: lease after its only file went = %+v, %v; want kept and empty", c, l, ok)
		}
	}
	// The maintenance tick rides on datanode heartbeats: run them to one
	// step short of the lease timeout, then one step onto it.
	step := DefaultExpiry / 2
	tick := func() {
		clk.advance(step)
		beatAll(t, nn, names)
	}
	for waited := step; waited < DefaultLeaseTimeout; waited += step {
		tick()
	}
	for _, c := range clients {
		if _, ok := nn.ns.leases[c]; !ok {
			t.Fatalf("%s lost its lease after %v of silence, under the lease timeout", c, DefaultLeaseTimeout-step)
		}
	}
	if !nn.Registry().HasRecords("steady") {
		t.Fatalf("steady lost its speed records after %v of silence, under the lease timeout", DefaultLeaseTimeout-step)
	}
	tick()
	for _, c := range clients {
		if _, ok := nn.ns.leases[c]; ok {
			t.Errorf("silent for %v, %s still has a lease", DefaultLeaseTimeout, c)
		}
	}
	if nn.Registry().HasRecords("steady") {
		t.Errorf("silent for %v, steady still has speed records", DefaultLeaseTimeout)
	}
}
