package datanode

import (
	"reflect"
	"testing"

	"repro/internal/block"
	"repro/internal/nnapi"
	"repro/internal/rpc"
	"repro/internal/storage"
	"repro/internal/transport"
)

// TestFlushReportsRequeuesUnansweredBatch: a batch the namenode never
// answered (here: nobody is listening) goes back to the front of the
// queue, ahead of reports queued meanwhile, and the next flush that gets
// through delivers everything once, in finalization order. A batch the
// namenode refused is dropped.
func TestFlushReportsRequeuesUnansweredBatch(t *testing.T) {
	n := transport.NewMemNetwork(nil)
	dn, err := New(Options{Name: "dn1", Addr: "dn1", NamenodeAddr: "nn", Network: n, Store: storage.NewMemStore(), Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer dn.Stop()
	b := func(id block.ID) block.Block { return block.Block{ID: id, Gen: 1, NumBytes: 10} }

	dn.reportBlockReceived(b(1))
	dn.reportBlockReceived(b(2))
	dn.flushReports() // every dial fails: unanswered
	dn.reportBlockReceived(b(3))

	var got [][]block.Block
	refuse := false
	s := rpc.NewServer()
	rpc.Handle(s, nnapi.MethodBlockReceivedBatch, func(req nnapi.BlockReceivedBatchReq) (nnapi.BlockReceivedBatchResp, error) {
		if refuse {
			return nnapi.BlockReceivedBatchResp{}, &rpc.RemoteError{Msg: "unknown datanode"}
		}
		got = append(got, req.Blocks)
		return nnapi.BlockReceivedBatchResp{}, nil
	})
	l, err := n.Listen("nn")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(l)
	defer s.Close()

	dn.flushReports()
	if want := [][]block.Block{{b(1), b(2), b(3)}}; !reflect.DeepEqual(got, want) {
		t.Fatalf("namenode received %v, want %v", got, want)
	}
	dn.flushReports() // nothing left
	refuse = true
	dn.reportBlockReceived(b(4))
	dn.flushReports() // refused: dropped, not re-queued
	refuse = false
	dn.flushReports()
	if len(got) != 1 {
		t.Fatalf("namenode received %v after a refusal, want nothing more", got[1:])
	}
}
