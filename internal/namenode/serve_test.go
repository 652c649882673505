package namenode

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/block"
	"repro/internal/nnapi"
	"repro/internal/proto"
	"repro/internal/rpc"
	"repro/internal/transport"
)

// TestServeAndCloseWithIdleClient drives every registered method over a
// real rpc connection, then leaves that connection open and idle: Close
// must not wait for the client to hang up (it used to block for as long
// as any client stayed connected).
func TestServeAndCloseWithIdleClient(t *testing.T) {
	nn, _, _ := newTestNN(t)
	n := transport.NewMemNetwork(nil)
	l, err := n.Listen("nn")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan struct{})
	go func() {
		nn.Serve(l)
		close(served)
	}()
	c, err := rpc.Dial(n, "client", "nn")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// A zero request may well be refused by the handler; what must not
	// happen is the dispatch failing before it gets there.
	for method, req := range map[string]any{
		nnapi.MethodCreate:             nnapi.CreateReq{},
		nnapi.MethodAddBlock:           nnapi.AddBlockReq{},
		nnapi.MethodComplete:           nnapi.CompleteReq{},
		nnapi.MethodRecoverBlock:       nnapi.RecoverBlockReq{},
		nnapi.MethodClientHeartbeat:    nnapi.ClientHeartbeatReq{},
		nnapi.MethodGetBlockLocations:  nnapi.GetBlockLocationsReq{},
		nnapi.MethodGetFileInfo:        nnapi.GetFileInfoReq{},
		nnapi.MethodClusterInfo:        nnapi.ClusterInfoReq{},
		nnapi.MethodDelete:             nnapi.DeleteReq{},
		nnapi.MethodRename:             nnapi.RenameReq{},
		nnapi.MethodList:               nnapi.ListReq{},
		nnapi.MethodRegister:           nnapi.RegisterReq{Name: "dn1", Addr: "mem://dn1", Rack: "/rack-a"},
		nnapi.MethodHeartbeat:          nnapi.HeartbeatReq{},
		nnapi.MethodBlockReceived:      nnapi.BlockReceivedReq{},
		nnapi.MethodBlockReceivedBatch: nnapi.BlockReceivedBatchReq{},
		nnapi.MethodDecommission:       nnapi.DecommissionReq{},
		nnapi.MethodDecommStatus:       nnapi.DecommStatusReq{},
		nnapi.MethodBalance:            nnapi.BalanceReq{},
	} {
		err := c.Call(method, req, nil)
		var remote *rpc.RemoteError
		if err != nil && (!errors.As(err, &remote) || strings.HasPrefix(err.Error(), "rpc:")) {
			t.Errorf("%s: %v", method, err)
		}
	}
	var info nnapi.ClusterInfoResp
	if err := c.Call(nnapi.MethodClusterInfo, nnapi.ClusterInfoReq{}, &info); err != nil || info.ActiveDatanodes != 9 {
		t.Fatalf("clusterInfo over rpc: %+v, %v", info, err)
	}

	closed := make(chan struct{})
	go func() {
		nn.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(time.Second):
		t.Fatal("Namenode.Close still waiting on an idle client connection after 1s")
	}
	<-served
}

// serveMem serves nn over a fresh in-memory network and returns a
// client connected to it; both are stopped when the test ends.
func serveMem(tb testing.TB, nn *Namenode) *rpc.Client {
	tb.Helper()
	n := transport.NewMemNetwork(nil)
	l, err := n.Listen("nn")
	if err != nil {
		tb.Fatal(err)
	}
	go nn.Serve(l)
	tb.Cleanup(nn.Close)
	c, err := rpc.Dial(n, "client", "nn")
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(c.Close)
	return c
}

// TestHeartbeatTablesAreNotRetained sends one client's speed tables
// through the rpc server one heartbeat at a time, each naming one
// datanode. The server parses every heartbeat into a recycled request,
// so a registry that kept the map it was handed would see earlier
// datanodes vanish when the next heartbeat clears and refills it; a
// registry that copies keeps every speed.
func TestHeartbeatTablesAreNotRetained(t *testing.T) {
	nn, _, names := newTestNN(t)
	c := serveMem(t, nn)
	for i, dn := range names {
		req := nnapi.ClientHeartbeatReq{Client: "c", Speeds: map[string]float64{dn: float64(10 * (i + 1))}}
		if err := c.Call(nnapi.MethodClientHeartbeat, req, &nnapi.ClientHeartbeatResp{}); err != nil {
			t.Fatal(err)
		}
	}
	// Speeds 10..90 by name: TopN over every node lists them fastest first.
	want := slices.Clone(names)
	slices.Reverse(want)
	if got := nn.Registry().TopN("c", len(names), names); !slices.Equal(got, want) {
		t.Fatalf("TopN after %d single-entry heartbeats = %v, want %v: a table the registry kept was overwritten", len(names), got, want)
	}
}

// lifecycleRPC runs meta_2w's file lifecycle over c: create, a client
// heartbeat before each of eight SMARTH addBlocks, one report per block
// from dn, complete and delete — 27 calls, one frame each.
func lifecycleRPC(c *rpc.Client, client, path, dn string, speeds map[string]float64) error {
	const blocks = 8
	if err := c.Call(nnapi.MethodCreate, nnapi.CreateReq{Path: path, Client: client, Replication: 3, BlockSize: 1 << 20}, &nnapi.CreateResp{}); err != nil {
		return err
	}
	var granted [blocks]block.Block
	var prev block.Block
	for i := range granted {
		if err := c.Call(nnapi.MethodClientHeartbeat, nnapi.ClientHeartbeatReq{Client: client, Speeds: speeds}, &nnapi.ClientHeartbeatResp{}); err != nil {
			return err
		}
		var ab nnapi.AddBlockResp
		if err := c.Call(nnapi.MethodAddBlock, nnapi.AddBlockReq{Path: path, Client: client, Mode: proto.ModeSmarth, Previous: prev}, &ab); err != nil {
			return err
		}
		if len(ab.Located.Targets) != 3 {
			return fmt.Errorf("addBlock %s: %d targets, want 3", path, len(ab.Located.Targets))
		}
		prev = ab.Located.Block
		granted[i] = prev
		granted[i].NumBytes = 1 << 20
	}
	for _, b := range granted {
		if err := c.Call(nnapi.MethodBlockReceived, nnapi.BlockReceivedReq{Name: dn, Block: b}, &nnapi.BlockReceivedResp{}); err != nil {
			return err
		}
	}
	var comp nnapi.CompleteResp
	if err := c.Call(nnapi.MethodComplete, nnapi.CompleteReq{Path: path, Client: client}, &comp); err != nil || !comp.Done {
		return fmt.Errorf("complete %s: done=%v err=%v", path, comp.Done, err)
	}
	var del nnapi.DeleteResp
	if err := c.Call(nnapi.MethodDelete, nnapi.DeleteReq{Path: path}, &del); err != nil || !del.Deleted {
		return fmt.Errorf("delete %s: deleted=%v err=%v", path, del.Deleted, err)
	}
	return nil
}

// BenchmarkLifecycleRPC is the in-repo counterpart of the benchmark's
// meta_2w workload for one client: one op is one 27-call file lifecycle
// through rpc.Server over the in-memory transport, SMARTH placement on
// nine datanodes in two racks. Every 64th lifecycle heartbeats the
// datanodes, which drains the invalidations the deletes queued, so the
// cost per op does not grow with b.N. The client's name is longer than
// one byte, as meta_2w's are: Go converts a one-byte slice to a string
// without allocating, which would hide the per-request name string.
func BenchmarkLifecycleRPC(b *testing.B) {
	nn, _, names := newTestNN(b)
	c := serveMem(b, nn)
	speeds := make(map[string]float64, len(names))
	for i, dn := range names {
		speeds[dn] = float64(40 + 15*i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := lifecycleRPC(c, "client-0", fmt.Sprintf("/bench/f%d", i), names[i%len(names)], speeds); err != nil {
			b.Fatal(err)
		}
		if i%64 == 63 {
			for _, dn := range names {
				if _, err := nn.Heartbeat(nnapi.HeartbeatReq{Name: dn}); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
}
