package cluster

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/client"
	"repro/internal/datanode"
	"repro/internal/namenode"
	"repro/internal/policy"
	"repro/internal/proto"
	"repro/internal/storage"
	"repro/internal/transport"
	"repro/internal/workload"
)

// TestPolicyWritesMem runs every non-default write policy through a real
// in-memory cluster: multi-block SMARTH write, full read-back, and a
// count of the replicas that landed.
func TestPolicyWritesMem(t *testing.T) {
	for _, pol := range []string{policy.SpeedAware} {
		pol := pol
		t.Run(pol, func(t *testing.T) {
			c := startTestCluster(t, 6)
			cl, err := c.NewClient("pol-client")
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()

			data := randomData(17, 1<<20) // 4 blocks at the 256 KiB test size
			opts := testWriteOptions(proto.ModeSmarth)
			opts.Policy = pol
			path := "/policy-" + pol
			w, err := cl.CreateSmarth(path, opts)
			if err != nil {
				t.Fatalf("create with policy %s: %v", pol, err)
			}
			if _, err := w.Write(data); err != nil {
				t.Fatalf("write: %v", err)
			}
			if err := w.Close(); err != nil {
				t.Fatalf("close: %v", err)
			}
			verifyFile(t, cl, path, data)

			// Every block must have landed on 3 datanodes wherever the
			// policy placed them.
			replicas := 0
			for i := 1; i <= 6; i++ {
				dn := c.Datanode(fmt.Sprintf("dn%d", i))
				replicas += len(dn.Store().Blocks())
			}
			if want := 4 * 3; replicas != want {
				t.Fatalf("stored %d replicas across the cluster, want %d", replicas, want)
			}
		})
	}
}

// TestPolicyUnknownNameFailsCreate pins the client-side validation: an
// unknown policy never reaches the namenode.
func TestPolicyUnknownNameFailsCreate(t *testing.T) {
	c := startTestCluster(t, 3)
	cl, err := c.NewClient("pol-client")
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	opts := testWriteOptions(proto.ModeSmarth)
	opts.Policy = "no-such-policy"
	if _, err := cl.CreateSmarth("/nope", opts); err == nil {
		t.Fatal("CreateSmarth accepted an unknown policy name")
	}
	opts.Mode = proto.ModeHDFS
	if _, err := cl.CreateHDFS("/nope", opts); err == nil {
		t.Fatal("CreateHDFS accepted an unknown policy name")
	}
}

// TestPolicyWritesTCP repeats the policy round trip over real loopback
// sockets.
func TestPolicyWritesTCP(t *testing.T) {
	net := transport.NewTCPNetwork(nil)

	nn := namenode.New(namenode.Options{Seed: 5})
	nnListener, err := net.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go nn.Serve(nnListener)
	defer nn.Close()

	for i := 0; i < 5; i++ {
		name := fmt.Sprintf("ptcp-dn%d", i+1)
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
	}

	cl, err := client.New(client.Options{
		Name:         "ptcp-client",
		NamenodeAddr: nnListener.Addr(),
		Network:      net,
		Logf:         t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	data := workload.Data(62, 2<<20)
	for _, pol := range []string{policy.SpeedAware} {
		opts := client.WriteOptions{
			Mode: proto.ModeSmarth, Replication: 3,
			BlockSize: 512 << 10, PacketSize: 64 << 10,
			Policy: pol,
		}
		path := "/ptcp-" + pol
		w, err := cl.CreateSmarth(path, opts)
		if err != nil {
			t.Fatalf("create %s over TCP: %v", pol, err)
		}
		if _, err := w.Write(data); err != nil {
			t.Fatalf("write %s over TCP: %v", pol, err)
		}
		if err := w.Close(); err != nil {
			t.Fatalf("close %s over TCP: %v", pol, err)
		}
		got, err := cl.ReadAll(path)
		if err != nil {
			t.Fatalf("read %s over TCP: %v", pol, err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("%s: TCP round trip corrupted data", path)
		}
	}
}
