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
