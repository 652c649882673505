package cluster

import (
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/client"
	"repro/internal/nnapi"
	"repro/internal/proto"
	"repro/internal/rpc"
	"repro/internal/transport"
)

// lastDialNet remembers the most recent connection dialed to one address,
// so a test can cut it.
type lastDialNet struct {
	transport.Network
	addr string
	mu   sync.Mutex
	last transport.Conn
}

func (n *lastDialNet) Dial(local, remote string) (transport.Conn, error) {
	conn, err := n.Network.Dial(local, remote)
	if err == nil && remote == n.addr {
		n.mu.Lock()
		n.last = conn
		n.mu.Unlock()
	}
	return conn, err
}

func (n *lastDialNet) cut() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.last.Close()
}

// TestWriteSurvivesNamenodeConnCutUnderAddBlock kills the client's
// namenode connection while its second addBlock is waiting for the reply
// — after the namenode has executed it. The client must see a transport
// failure (not the server's answer), drop the dead connection, redial and
// retry; the retried request carries Previous, so the namenode hands back
// the block it already allocated and the file completes with no orphan.
//
// The client talks to a front server that forwards to the real namenode,
// so the test can cut the connection from inside the handler.
func TestWriteSurvivesNamenodeConnCutUnderAddBlock(t *testing.T) {
	c := startTestCluster(t, 9)
	net := &lastDialNet{Network: c.EffNet, addr: "nn-front"}

	front := rpc.NewServer()
	var addBlocks atomic.Int32
	rpc.Handle(front, nnapi.MethodAddBlock, func(req nnapi.AddBlockReq) (nnapi.AddBlockResp, error) {
		resp, err := c.NN.AddBlock(req)
		if addBlocks.Add(1) == 2 {
			net.cut() // the reply to this call has nowhere to go
		}
		return resp, err
	})
	rpc.Handle(front, nnapi.MethodCreate, c.NN.Create)
	rpc.Handle(front, nnapi.MethodClusterInfo, c.NN.ClusterInfo)
	rpc.Handle(front, nnapi.MethodClientHeartbeat, c.NN.ClientHeartbeat)
	rpc.Handle(front, nnapi.MethodComplete, c.NN.Complete)
	rpc.Handle(front, nnapi.MethodGetBlockLocations, c.NN.GetBlockLocations)
	l, err := c.Net.Listen(net.addr)
	if err != nil {
		t.Fatal(err)
	}
	go front.Serve(l)
	t.Cleanup(front.Close)

	cl, err := client.New(client.Options{
		Name:         "client",
		NamenodeAddr: net.addr,
		Network:      net,
		Seed:         8,
		Logf:         t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)

	data := randomData(41, 1<<20) // 4 blocks at the 256 KiB test size
	writeFile(t, cl, "/cut", data, proto.ModeSmarth)
	verifyFile(t, cl, "/cut", data)
	if n := addBlocks.Load(); n != 5 {
		t.Fatalf("namenode saw %d addBlock calls, want 5 (4 blocks + 1 retry of the cut one)", n)
	}
	info, err := c.NN.GetFileInfo(nnapi.GetFileInfoReq{Path: "/cut"})
	if err != nil || info.NumBlocks != 4 {
		t.Fatalf("file has %d blocks (err=%v), want 4: the retried addBlock allocated an orphan", info.NumBlocks, err)
	}
}
