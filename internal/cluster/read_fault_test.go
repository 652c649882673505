package cluster

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/block"
	"repro/internal/checksum"
	"repro/internal/client"
	"repro/internal/faultnet"
	"repro/internal/obs"
	"repro/internal/proto"
	"repro/internal/storage"
	"repro/internal/transport"
)

// startReadFaultCluster boots a 3-datanode cluster behind faultnet with
// shared observability and read deadlines tight enough that a wedged
// replica is detected in fractions of a second. Unless the caller sets
// one, the liveness window is a minute: these tests decide which replica
// fails, and the default 250 ms window lets a loaded machine (or a
// replica frozen on purpose, which stops heartbeating) drop a datanode
// from the location order so the read never tries it first.
func startReadFaultCluster(t *testing.T, cfg Config) (*Cluster, *faultnet.Network, *client.Client, *obs.Obs) {
	t.Helper()
	o := obs.New(nil)
	cfg.Obs = o
	if cfg.Expiry <= 0 {
		cfg.Expiry = time.Minute
	}
	if cfg.ClientTimeouts == (client.Timeouts{}) {
		cfg.ClientTimeouts = client.Timeouts{
			Progress: 250 * time.Millisecond,
			RPC:      time.Second,
		}
	}
	var fn *faultnet.Network
	cfg.NumDatanodes = 3
	cfg.Seed = 11
	cfg.WrapNetwork = func(m *transport.MemNetwork) transport.Network {
		fn = faultnet.Wrap(m)
		return fn
	}
	cfg.Logf = t.Logf
	c, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Stop)
	cl, err := c.NewClient("client")
	if err != nil {
		t.Fatal(err)
	}
	return c, fn, cl, o
}

// readCounter reads one of the client's read-path counters.
func readCounter(o *obs.Obs, name string) int64 {
	return o.Component("client/client").Counter(name).Load()
}

// firstReadTarget returns a file's first block and the replica the
// namenode offers this client first — the one every read tries before
// failing over — once all three replicas are listed: each trailing
// blockReceived report can change which replica is offered first, or
// leave the read nothing to fail over to.
func firstReadTarget(t *testing.T, c *Cluster, path string) (block.LocatedBlock, string) {
	t.Helper()
	lb := waitReplication(t, c, path, 3)[0]
	return lb, lb.Targets[0].Name
}

// readAllGuarded reads the whole file under a wall-clock watchdog — the
// failure mode these tests guard against is a reader that blocks
// forever on a silent replica.
func readAllGuarded(t *testing.T, cl *client.Client, path string, want []byte, within time.Duration) {
	t.Helper()
	type result struct {
		data []byte
		err  error
	}
	ch := make(chan result, 1)
	go func() {
		r, err := cl.Open(path)
		if err != nil {
			ch <- result{nil, err}
			return
		}
		data, err := io.ReadAll(r)
		if cerr := r.Close(); err == nil {
			err = cerr
		}
		ch <- result{data, err}
	}()
	select {
	case res := <-ch:
		if res.err != nil {
			t.Fatalf("read %s: %v", path, res.err)
		}
		if !bytes.Equal(res.data, want) {
			t.Fatalf("read %s: %d bytes, want %d (mismatch at %d)",
				path, len(res.data), len(want), firstDiff(res.data, want))
		}
	case <-time.After(within):
		t.Fatalf("read %s did not finish within %v (stalled reader)", path, within)
	}
}

// TestReadFailsOverFromFrozenReplica wedges the first replica before the
// read: the datanode accepts the connection and then never answers.
// Without read deadlines this blocked Open/ReadAll forever; with them
// the handshake times out and the read fails over.
func TestReadFailsOverFromFrozenReplica(t *testing.T) {
	c, fn, cl, _ := startReadFaultCluster(t, Config{})
	data := randomData(311, 128<<10)
	writeFile(t, cl, "/frozen-read", data, proto.ModeSmarth)
	_, first := firstReadTarget(t, c, "/frozen-read")
	fn.Freeze(first)
	t.Cleanup(func() { fn.Thaw(first) })
	readAllGuarded(t, cl, "/frozen-read", data, 15*time.Second)
}

// TestReadFailsOverFromSilentReplicaEveryPacket blackholes the first
// replica's link to the client at the handshake and then within every
// packet of the block in turn. Each position must produce a bounded
// stall, a failover, and a byte-perfect read.
func TestReadFailsOverFromSilentReplicaEveryPacket(t *testing.T) {
	c, fn, cl, o := startReadFaultCluster(t, Config{})
	data := randomData(313, 128<<10) // one block: 8 × 16 KiB packets
	writeFile(t, cl, "/silent-read", data, proto.ModeSmarth)
	_, first := firstReadTarget(t, c, "/silent-read")

	// One packet on the wire: 16 KiB data + 32 × 4 B checksums + framing.
	const packetWire = 16<<10 + 32*4 + 64
	positions := []int64{1} // mid-handshake: the header ack never arrives
	for i := 0; i < 8; i++ {
		positions = append(positions, 64+int64(i)*packetWire)
	}
	for _, dropAfter := range positions {
		before := readCounter(o, "read_failovers")
		fn.SetLink(first, "client", faultnet.Fault{DropAfter: dropAfter})
		readAllGuarded(t, cl, "/silent-read", data, 15*time.Second)
		fn.ClearLink(first, "client")
		if dropAfter > 1 && readCounter(o, "read_failovers") == before {
			t.Fatalf("dropAfter=%d: read completed without a mid-stream failover", dropAfter)
		}
	}
}

// TestReadFailsOverFromTruncatedReplica serves a replica whose stored
// bytes rotted short of its recorded length: the datanode drops the conn
// at the missing tail and the reader must resume on another replica.
func TestReadFailsOverFromTruncatedReplica(t *testing.T) {
	c, _, cl, o := startReadFaultCluster(t, Config{})
	data := randomData(317, 128<<10)
	writeFile(t, cl, "/truncated-read", data, proto.ModeSmarth)
	lb, first := firstReadTarget(t, c, "/truncated-read")
	ms := c.Datanode(first).Store().(*storage.MemStore)
	// Progressively worse rot: lose the last byte, half the block, all
	// of it (Truncate only shrinks, so the order is descending).
	for _, keep := range []int64{128<<10 - 1, 64 << 10, 0} {
		if err := ms.Truncate(lb.Block.ID, keep); err != nil {
			t.Fatal(err)
		}
		before := readCounter(o, "read_failovers")
		readAllGuarded(t, cl, "/truncated-read", data, 15*time.Second)
		if readCounter(o, "read_failovers") == before {
			t.Fatalf("keep=%d: read completed without failing over the truncated replica", keep)
		}
	}
}

// TestReadFailsOverOnBadMeta cuts one checksum off the end of the first
// replica's .meta on disk. That datanode must refuse the read in its
// setup ack, before a byte is streamed, and the reader take the block
// whole from another replica: one refused attempt at the bad replica, no
// packet from it, and so no mid-stream failover.
func TestReadFailsOverOnBadMeta(t *testing.T) {
	root := t.TempDir()
	c, _, cl, o := startReadFaultCluster(t, Config{NewStore: func(name string) (storage.Store, error) {
		return storage.NewDiskStore(filepath.Join(root, name))
	}})
	data := randomData(337, 128<<10) // one block: two packets as the datanode serves it
	writeFile(t, cl, "/bad-meta", data, proto.ModeSmarth)
	lb, first := firstReadTarget(t, c, "/bad-meta")
	meta := filepath.Join(root, first, "cur", fmt.Sprintf("blk_%d_%d.meta", lb.Block.ID, lb.Block.Gen))
	fi, err := os.Stat(meta)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(meta, fi.Size()-checksum.BytesPerChecksum); err != nil {
		t.Fatal(err)
	}
	bad := o.Component("datanode/" + first)
	reads, packets := bad.Counter("reads").Load(), bad.Counter("read_packets").Load()
	failovers := readCounter(o, "read_failovers")
	readAllGuarded(t, cl, "/bad-meta", data, 15*time.Second)
	if n := bad.Counter("reads").Load() - reads; n != 1 {
		t.Fatalf("%s, the replica with the bad .meta, was asked %d times, want once", first, n)
	}
	if n := bad.Counter("read_packets").Load() - packets; n != 0 {
		t.Fatalf("%s streamed %d packets from a replica whose checksums do not cover it", first, n)
	}
	if n := readCounter(o, "read_failovers") - failovers; n != 0 {
		t.Fatalf("%d mid-stream failovers; the bad replica should have been refused at setup", n)
	}
}

// TestReadSurvivesDatanodeDeathMidRead kills the serving datanode after
// the reader has consumed part of the block; the stream must resume at
// the exact offset on a surviving replica. The block is deliberately
// larger than the transport's 256 KiB pipe buffer so the tail cannot
// already be in flight when the node dies — the failover is forced, not
// timing-dependent.
func TestReadSurvivesDatanodeDeathMidRead(t *testing.T) {
	c, _, cl, o := startReadFaultCluster(t, Config{})
	data := randomData(331, 1<<20) // one 1 MiB block
	w, err := cl.CreateSmarth("/midread-kill", client.WriteOptions{
		Replication: 3,
		BlockSize:   1 << 20,
		PacketSize:  16 << 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	_, first := firstReadTarget(t, c, "/midread-kill")

	r, err := cl.Open("/midread-kill")
	if err != nil {
		t.Fatal(err)
	}
	head := make([]byte, 100<<10)
	if _, err := io.ReadFull(r, head); err != nil {
		t.Fatal(err)
	}
	before := readCounter(o, "read_failovers")
	c.KillDatanode(first)
	rest, err := io.ReadAll(r)
	if err != nil {
		t.Fatalf("read after datanode death: %v", err)
	}
	if cerr := r.Close(); cerr != nil {
		t.Fatalf("close: %v", cerr)
	}
	got := append(head, rest...)
	if !bytes.Equal(got, data) {
		t.Fatalf("read %d bytes, want %d (mismatch at %d)", len(got), len(data), firstDiff(got, data))
	}
	if readCounter(o, "read_failovers") == before {
		t.Fatal("no failover recorded for a mid-read datanode death")
	}
}
