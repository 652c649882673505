package client

import (
	"io"
	"math/rand"
	"testing"
	"time"

	"repro/internal/block"
	"repro/internal/datanode"
	"repro/internal/nnapi"
	"repro/internal/rpc"
	"repro/internal/storage"
	"repro/internal/transport"
)

// skipUnderRace skips pool-dependent allocation counting when built with
// -race, which makes sync.Pool drop puts at random.
func skipUnderRace(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unreliable under -race (sync.Pool drops puts)")
	}
}

// TestReadSteadyStateAllocs drives a real client against a real datanode
// over an in-memory network and counts allocations in the steady-state
// read loop: pooled wire packets whose payloads land in the caller's
// buffer, no per-packet garbage. This is the read-side companion to the codec
// bounds in internal/proto/alloc_test.go — it catches regressions
// anywhere on the path (conn, packet pool, reader buffering), not just
// in the codecs.
func TestReadSteadyStateAllocs(t *testing.T) {
	skipUnderRace(t)
	n := transport.NewMemNetwork(nil)

	// One finalized 4 MiB replica on dn1.
	const fileLen = 4 << 20
	data := make([]byte, fileLen)
	rand.New(rand.NewSource(601)).Read(data)
	blk := block.Block{ID: 1, Gen: 1, NumBytes: fileLen}
	store := storage.NewMemStore()
	bw, err := store.Create(blk, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bw.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := bw.Commit(); err != nil {
		t.Fatal(err)
	}

	// Fake namenode: enough of the protocol for a datanode to start and
	// a client to locate the one block.
	s := rpc.NewServer()
	rpc.Handle(s, nnapi.MethodRegister, func(nnapi.RegisterReq) (nnapi.RegisterResp, error) {
		return nnapi.RegisterResp{}, nil
	})
	rpc.Handle(s, nnapi.MethodHeartbeat, func(nnapi.HeartbeatReq) (nnapi.HeartbeatResp, error) {
		return nnapi.HeartbeatResp{}, nil
	})
	rpc.Handle(s, nnapi.MethodBlockReceivedBatch, func(nnapi.BlockReceivedBatchReq) (nnapi.BlockReceivedBatchResp, error) {
		return nnapi.BlockReceivedBatchResp{}, nil
	})
	rpc.Handle(s, nnapi.MethodClientHeartbeat, func(nnapi.ClientHeartbeatReq) (nnapi.ClientHeartbeatResp, error) {
		return nnapi.ClientHeartbeatResp{}, nil
	})
	rpc.Handle(s, nnapi.MethodGetBlockLocations, func(nnapi.GetBlockLocationsReq) (nnapi.GetBlockLocationsResp, error) {
		return nnapi.GetBlockLocationsResp{
			Blocks: []block.LocatedBlock{{
				Block:   blk,
				Targets: []block.DatanodeInfo{{Name: "dn1", Addr: "dn1"}},
			}},
			Len: fileLen,
		}, nil
	})
	l, err := n.Listen("nn")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(l)
	t.Cleanup(s.Close)

	dn, err := datanode.New(datanode.Options{
		Name: "dn1", Addr: "dn1", NamenodeAddr: "nn",
		Network: n, Store: store,
		// Keep periodic background chatter out of the allocation window.
		HeartbeatInterval: time.Hour,
		Logf:              t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := dn.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(dn.Stop)

	cl, err := New(Options{
		Name: "client", NamenodeAddr: "nn", Network: n,
		HeartbeatInterval: time.Hour,
		Logf:              t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })

	// A single block, so no prefetch dial: the measured loop is exactly
	// read-packet-into-buf/verify.
	r, err := cl.Open("/alloc-read")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	// Warm up: first reads connect and populate the packet pool.
	buf := make([]byte, 64<<10)
	pos := 0
	for pos < 256<<10 {
		m, err := io.ReadFull(r, buf)
		if err != nil {
			t.Fatal(err)
		}
		pos += m
	}

	// Steady state: 48 × 64 KiB stays inside the 4 MiB block.
	avg := testing.AllocsPerRun(47, func() {
		m, err := io.ReadFull(r, buf)
		if err != nil {
			t.Fatal(err)
		}
		pos += m
	})
	// Allow a whisker of slack for runtime-internal noise while still
	// catching any real per-packet allocation (which would cost
	// ≥ 1/packet = 1 per 64 KiB read).
	if avg > 0.5 {
		t.Fatalf("steady-state Read allocates %.2f times per 64 KiB, want 0", avg)
	}
}
