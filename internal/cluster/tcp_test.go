package cluster

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/client"
	"repro/internal/datanode"
	"repro/internal/namenode"
	"repro/internal/proto"
	"repro/internal/storage"
	"repro/internal/transport"
	"repro/internal/workload"
)

// TestTCPEndToEnd runs the whole stack over real loopback sockets: a
// namenode, five datanodes, and a client writing with both protocols and
// reading back — the same wiring cmd/smarth-cluster and cmd/smarth-put
// use.
func TestTCPEndToEnd(t *testing.T) {
	net := transport.NewTCPNetwork()

	nn := namenode.New(namenode.Options{Seed: 5})
	nnListener, err := net.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go nn.Serve(nnListener)
	defer nn.Close()

	var dns []*datanode.Datanode
	for i := 0; i < 5; i++ {
		name := fmt.Sprintf("tcp-dn%d", i+1)
		rack := "/rack-a"
		if i >= 3 {
			rack = "/rack-b"
		}
		dn, err := datanode.New(datanode.Options{
			Name:         name,
			Addr:         "127.0.0.1:0",
			Rack:         rack,
			NamenodeAddr: nnListener.Addr(),
			Network:      net,
			Store:        storage.NewMemStore(),
			Logf:         t.Logf,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := dn.Start(); err != nil {
			t.Fatal(err)
		}
		defer dn.Stop()
		if dn.Info().Addr == "127.0.0.1:0" {
			t.Fatal("datanode did not resolve its listen address")
		}
		dns = append(dns, dn)
	}

	cl, err := client.New(client.Options{
		Name:         "tcp-client",
		NamenodeAddr: nnListener.Addr(),
		Network:      net,
		Logf:         t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	data := workload.Data(61, 3<<20)
	opts := client.WriteOptions{Replication: 3, BlockSize: 512 << 10, PacketSize: 64 << 10}

	for _, mode := range []proto.WriteMode{proto.ModeHDFS, proto.ModeSmarth} {
		path := fmt.Sprintf("/tcp-%s", mode)
		w, err := create(cl, path, opts, mode)
		if err != nil {
			t.Fatalf("create over TCP: %v", err)
		}
		if _, err := w.Write(data); err != nil {
			t.Fatalf("write over TCP: %v", err)
		}
		if err := w.Close(); err != nil {
			t.Fatalf("close over TCP: %v", err)
		}
		got, err := cl.ReadAll(path)
		if err != nil {
			t.Fatalf("read over TCP: %v", err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("%s: TCP round trip corrupted data", path)
		}
	}

	// The replicas really are spread across the TCP datanodes.
	total := 0
	for _, dn := range dns {
		total += len(dn.Store().Blocks())
	}
	if total == 0 {
		t.Fatal("no replicas stored on TCP datanodes")
	}
}
