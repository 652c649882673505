package namenode

import (
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/nnapi"
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
