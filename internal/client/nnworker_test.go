package client

import (
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/block"
	"repro/internal/nnapi"
	"repro/internal/proto"
	"repro/internal/rpc"
	"repro/internal/transport"
)

// TestNNWorkerFIFOOneFramePerOp stalls a writer's RPC worker, queues a
// heartbeat, an addBlock and a complete behind the stall, and releases
// it: a stub namenode must see exactly three frames, one per operation,
// in submission order — the heartbeat-before-addBlock order placement
// depends on comes from the queue alone.
func TestNNWorkerFIFOOneFramePerOp(t *testing.T) {
	n := transport.NewMemNetwork(nil)
	s := rpc.NewServer()
	rpc.Handle(s, nnapi.MethodClientHeartbeat, func(nnapi.ClientHeartbeatReq) (nnapi.ClientHeartbeatResp, error) {
		return nnapi.ClientHeartbeatResp{}, nil
	})
	rpc.Handle(s, nnapi.MethodAddBlock, func(nnapi.AddBlockReq) (nnapi.AddBlockResp, error) {
		return nnapi.AddBlockResp{}, nil
	})
	rpc.Handle(s, nnapi.MethodComplete, func(nnapi.CompleteReq) (nnapi.CompleteResp, error) {
		return nnapi.CompleteResp{Done: true}, nil
	})
	var mu sync.Mutex
	var frames []string
	s.SetObserver(func(method string, _ time.Duration, _ bool) {
		mu.Lock()
		frames = append(frames, method)
		mu.Unlock()
	})
	l, err := n.Listen("nn")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(l)
	t.Cleanup(s.Close)
	cl, err := New(Options{Name: "wb", NamenodeAddr: "nn", Network: n, HeartbeatInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)

	// The engine has no block staged, so it ignores the outcomes; only
	// the wire is under test.
	w := cl.newSchedWriter("/wb-file", WriteOptions{Replication: 3}, proto.ModeSmarth, 1)
	defer w.stopWorker()
	release, drained := make(chan struct{}), make(chan struct{})
	w.enqueueNN(func() { <-release })
	w.Heartbeat()
	w.AddBlock(0, nil, block.Block{})
	w.Complete()
	w.enqueueNN(func() { close(drained) })
	close(release)
	select {
	case <-drained:
	case <-time.After(5 * time.Second):
		t.Fatal("RPC worker did not drain")
	}

	want := []string{nnapi.MethodClientHeartbeat, nnapi.MethodAddBlock, nnapi.MethodComplete}
	mu.Lock()
	defer mu.Unlock()
	if !reflect.DeepEqual(frames, want) {
		t.Fatalf("namenode saw frames %v, want %v", frames, want)
	}
}
