package cluster

import (
	"testing"
	"time"

	"repro/internal/block"
	"repro/internal/nnapi"
	"repro/internal/proto"
	"repro/internal/storage"
)

// slowDeleteStore models a disk whose unlink takes a while.
type slowDeleteStore struct {
	storage.Store
	delay time.Duration
}

func (s slowDeleteStore) Delete(id block.ID) error {
	time.Sleep(s.delay)
	return s.Store.Delete(id)
}

// A datanode working through a batch of invalidations must keep
// heartbeating: eight 60 ms deletes outlast the default 250 ms liveness
// window, and a node that heartbeats late drops out of placement — with
// three datanodes, the next replication-3 write then fails with
// "policy: no available datanodes".
func TestSlowDeletesDoNotDelayHeartbeats(t *testing.T) {
	c, err := Start(Config{
		NumDatanodes: 3,
		Seed:         7,
		Logf:         t.Logf,
		NewStore: func(string) (storage.Store, error) {
			return slowDeleteStore{Store: storage.NewMemStore(), delay: 60 * time.Millisecond}, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	cl, err := c.NewClient("client")
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	data := randomData(3, 2<<20) // 8 blocks at the 256 KiB test size
	writeFile(t, cl, "/doomed", data, proto.ModeSmarth)
	if ok, err := cl.Delete("/doomed"); err != nil || !ok {
		t.Fatalf("delete: ok=%v err=%v", ok, err)
	}

	for start := time.Now(); ; time.Sleep(10 * time.Millisecond) {
		info, err := c.NN.ClusterInfo(nnapi.ClusterInfoReq{})
		if err != nil {
			t.Fatal(err)
		}
		if info.ActiveDatanodes != 3 {
			t.Fatalf("%d of 3 datanodes live %v into the deletes: a heartbeat waited behind Store.Delete",
				info.ActiveDatanodes, time.Since(start))
		}
		left := 0
		for _, dn := range c.DNs {
			left += len(dn.Store().Blocks())
		}
		if left == 0 {
			break
		}
		if time.Since(start) > 10*time.Second {
			t.Fatalf("%d replicas still stored: invalidations never ran", left)
		}
	}
	writeFile(t, cl, "/after", data[:256<<10], proto.ModeSmarth)
}

// An overwriting create must reclaim the replaced file's replicas the
// way a delete does: the namenode forgets the old blocks either way, and
// a datanode drops a replica only when told to.
func TestOverwriteReclaimsReplicas(t *testing.T) {
	c := startTestCluster(t, 3)
	cl, err := c.NewClient("client")
	if err != nil {
		t.Fatal(err)
	}
	opts := testWriteOptions()
	opts.Overwrite = true
	write := func(data []byte) {
		t.Helper()
		w, err := cl.CreateSmarth("/again", opts)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := w.Write(data); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	}
	write(randomData(5, 1<<20)) // 4 blocks, a replica of each on every datanode
	write(randomData(6, 512<<10))

	loc, err := c.NN.GetBlockLocations(nnapi.GetBlockLocationsReq{Path: "/again", Client: "client"})
	if err != nil {
		t.Fatal(err)
	}
	current := make(map[block.ID]bool)
	for _, lb := range loc.Blocks {
		current[lb.Block.ID] = true
	}
	for start := time.Now(); ; time.Sleep(10 * time.Millisecond) {
		stale := 0
		for _, dn := range c.DNs {
			for _, b := range dn.Store().Blocks() {
				if !current[b.Block.ID] {
					stale++
				}
			}
		}
		if stale == 0 {
			break
		}
		if time.Since(start) > 10*time.Second {
			t.Fatalf("%d replicas of the overwritten file still stored: the overwrite never invalidated them", stale)
		}
	}
	for _, dn := range c.DNs {
		if n := len(dn.Store().Blocks()); n != len(current) {
			t.Fatalf("%s holds %d replicas, want the new file's %d", dn.Name(), n, len(current))
		}
	}
}
