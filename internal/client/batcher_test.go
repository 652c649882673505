package client

import (
	"testing"
	"time"

	"repro/internal/namenode"
	"repro/internal/obs"
	"repro/internal/proto"
	"repro/internal/transport"
)

// startBatcherFixture boots a bare namenode on an in-memory network and
// returns a client wired to it plus the shared obs registry — just
// enough control plane for white-box RPC-worker tests, no datanodes.
func startBatcherFixture(t *testing.T) (*Client, *obs.Obs) {
	t.Helper()
	net := transport.NewMemNetwork(nil)
	o := obs.New(nil)
	nn := namenode.New(namenode.Options{Seed: 1, Obs: o})
	l, err := net.Listen("nn")
	if err != nil {
		t.Fatal(err)
	}
	go nn.Serve(l)
	t.Cleanup(nn.Close)
	cl, err := New(Options{Name: "wb", NamenodeAddr: l.Addr(), Network: net, Obs: o})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	return cl, o
}

// drainWorker enqueues a barrier op and waits for the worker to reach
// it, proving every previously queued op has been sent.
func drainWorker(t *testing.T, w *schedWriter) {
	t.Helper()
	done := make(chan struct{})
	w.enqueueNN(nnOp{run: func() { close(done) }})
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("RPC worker did not drain")
	}
}

// TestNNWorkerCoalescesQueuedOps is the deterministic coalescing test:
// stall the RPC worker behind a barrier op, queue two batchable
// heartbeats, release — the worker must send them as ONE batch frame
// (client rpc_batches and namenode nn_batches each +1, namenode logical
// nn_rpcs +2).
func TestNNWorkerCoalescesQueuedOps(t *testing.T) {
	cl, o := startBatcherFixture(t)
	w := cl.newSchedWriter("/wb-file", WriteOptions{Mode: proto.ModeSmarth, Replication: 3}, 1, true)
	defer w.stopWorker()

	nnRPCs := o.Component("namenode").Counter("nn_rpcs")
	nnBatches := o.Component("namenode").Counter("nn_batches")
	clBatches := o.Component("client/wb").Counter("rpc_batches")
	rpcs0, frames0 := nnRPCs.Load(), nnBatches.Load()

	release := make(chan struct{})
	w.enqueueNN(nnOp{run: func() { <-release }})
	w.Heartbeat()
	w.Heartbeat()
	close(release)
	drainWorker(t, w)

	if got := clBatches.Load(); got != 1 {
		t.Errorf("rpc_batches = %d, want 1 (two queued heartbeats → one frame)", got)
	}
	if got := nnBatches.Load() - frames0; got != 1 {
		t.Errorf("nn_batches delta = %d, want 1", got)
	}
	if got := nnRPCs.Load() - rpcs0; got != 2 {
		t.Errorf("nn_rpcs delta = %d, want 2 logical ops inside the frame", got)
	}
}

// TestNNWorkerSingleOpStaysUnbatched pins the wire-identity guarantee:
// an op that never shares the queue goes out as its plain RPC, so a
// lone writer is indistinguishable from a pre-batching client.
func TestNNWorkerSingleOpStaysUnbatched(t *testing.T) {
	cl, o := startBatcherFixture(t)
	w := cl.newSchedWriter("/wb-file", WriteOptions{Mode: proto.ModeSmarth, Replication: 3}, 1, true)
	defer w.stopWorker()

	w.Heartbeat()
	drainWorker(t, w)
	if got := o.Component("client/wb").Counter("rpc_batches").Load(); got != 0 {
		t.Errorf("rpc_batches = %d, want 0 for a lone op", got)
	}
}

// TestNNWorkerRunOpsAreBarriers proves a run-style op (complete,
// recoverBlock) splits the batchable run around it: [hb, run, hb] must
// produce zero batch frames — order is preserved, nothing reorders
// around the barrier.
func TestNNWorkerRunOpsAreBarriers(t *testing.T) {
	cl, o := startBatcherFixture(t)
	w := cl.newSchedWriter("/wb-file", WriteOptions{Mode: proto.ModeSmarth, Replication: 3}, 1, true)
	defer w.stopWorker()

	release := make(chan struct{})
	ran := false
	w.enqueueNN(nnOp{run: func() { <-release }})
	w.Heartbeat()
	w.enqueueNN(nnOp{run: func() { ran = true }})
	w.Heartbeat()
	close(release)
	drainWorker(t, w)
	if !ran {
		t.Fatal("barrier op skipped")
	}
	if got := o.Component("client/wb").Counter("rpc_batches").Load(); got != 0 {
		t.Errorf("rpc_batches = %d, want 0 — a barrier splits runs of one", got)
	}
}
