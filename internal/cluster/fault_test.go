package cluster

import (
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/block"
	"repro/internal/checksum"
	"repro/internal/client"
	"repro/internal/clock"
	"repro/internal/nnapi"
	"repro/internal/proto"
	"repro/internal/storage"
	"repro/internal/transport"
)

// writeWithMidFault drip-feeds data and kills victim ("" = nobody) once
// half of it is written.
func writeWithMidFault(t *testing.T, cl *client.Client, c *Cluster, path string, data []byte, mode proto.WriteMode, victim string) client.WriteStats {
	t.Helper()
	w, err := create(cl, path, testWriteOptions(), mode)
	if err != nil {
		t.Fatal(err)
	}

	var once sync.Once
	half := len(data) / 2
	for off := 0; off < len(data); {
		n := 64 << 10
		if off+n > len(data) {
			n = len(data) - off
		}
		if off >= half && victim != "" {
			once.Do(func() {
				t.Logf("killing %s at offset %d", victim, off)
				c.KillDatanode(victim)
			})
		}
		if _, err := w.Write(data[off : off+n]); err != nil {
			t.Fatalf("write at %d: %v", off, err)
		}
		off += n
	}
	if err := w.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	return w.Stats()
}

func TestHDFSSurvivesDatanodeCrash(t *testing.T) {
	c := startTestCluster(t, 9)
	cl, _ := c.NewClient("client")
	data := randomData(21, 2<<20)
	writeWithMidFault(t, cl, c, "/crash-hdfs", data, proto.ModeHDFS, "dn3")
	verifyFile(t, cl, "/crash-hdfs", data)
}

// TestSmarthSurvivesDatanodeCrash also prices the recovery (the paper
// describes Algorithms 3/4 but never costs them): the same upload on the
// same cluster configuration, clean and with a datanode killed halfway,
// and the crash must not blow the upload up by more than 5x.
func TestSmarthSurvivesDatanodeCrash(t *testing.T) {
	data := randomData(22, 2<<20)
	upload := func(victim string) time.Duration {
		c := startTestCluster(t, 9)
		cl, _ := c.NewClient("client")
		start := time.Now()
		st := writeWithMidFault(t, cl, c, "/crash-smarth", data, proto.ModeSmarth, victim)
		elapsed := time.Since(start)
		verifyFile(t, cl, "/crash-smarth", data)
		t.Logf("victim %q: %v, %d recoveries", victim, elapsed, st.Recoveries)
		return elapsed
	}
	// The floor keeps a scheduler hiccup on a few-millisecond in-memory
	// upload from reading as a recovery that waited out a deadline.
	clean, crashed := max(upload(""), 50*time.Millisecond), upload("dn4")
	if crashed > 5*clean {
		t.Fatalf("recovery overhead too large: clean %v, crashed %v", clean, crashed)
	}
}

func TestSmarthSurvivesCrashAfterSpeedRecords(t *testing.T) {
	// Write one file so the namenode has speed records, then crash the
	// fastest-looking node mid-write of a second file: the SMARTH
	// placement path (not the fallback) plus Algorithm 4 recovery.
	c := startTestCluster(t, 9)
	cl, _ := c.NewClient("client")
	warmup := randomData(23, 1<<20)
	writeFile(t, cl, "/warmup", warmup, proto.ModeSmarth)

	// Find a recorded datanode to kill.
	speeds := cl.Recorder().Snapshot()
	victim := ""
	for dn := range speeds {
		victim = dn
		break
	}
	if victim == "" {
		t.Fatal("no speeds recorded by warmup")
	}
	data := randomData(24, 2<<20)
	writeWithMidFault(t, cl, c, "/crash-warm", data, proto.ModeSmarth, victim)
	verifyFile(t, cl, "/crash-warm", data)
}

func TestCrashBeforeAnyWrite(t *testing.T) {
	c := startTestCluster(t, 9)
	cl, _ := c.NewClient("client")
	// Kill a node, wait for expiry, then write: placement must route
	// around the dead node without any recovery at all.
	c.KillDatanode("dn1")
	time.Sleep(c.cfg.Expiry + 100*time.Millisecond)
	data := randomData(25, 1<<20)
	writeFile(t, cl, "/after-death", data, proto.ModeHDFS)
	verifyFile(t, cl, "/after-death", data)
}

func TestTwoCrashesDuringWrite(t *testing.T) {
	c := startTestCluster(t, 9)
	cl, _ := c.NewClient("client")
	opts := testWriteOptions()
	w, err := cl.CreateSmarth("/double-crash", opts)
	if err != nil {
		t.Fatal(err)
	}
	data := randomData(26, 3<<20)
	third := len(data) / 3
	killed := 0
	for off := 0; off < len(data); {
		n := 64 << 10
		if off+n > len(data) {
			n = len(data) - off
		}
		if off >= third && killed == 0 {
			c.KillDatanode("dn2")
			killed++
		}
		if off >= 2*third && killed == 1 {
			c.KillDatanode("dn7")
			killed++
		}
		if _, err := w.Write(data[off : off+n]); err != nil {
			t.Fatalf("write at %d: %v", off, err)
		}
		off += n
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	verifyFile(t, cl, "/double-crash", data)
}

func TestReadFallsBackToSurvivingReplica(t *testing.T) {
	c := startTestCluster(t, 9)
	cl, _ := c.NewClient("client")
	data := randomData(27, 600<<10)
	writeFile(t, cl, "/fallback-read", data, proto.ModeHDFS)
	// Every holder reported first: a victim killed while the others'
	// reports are still queued would leave the read nothing to fall back to.
	waitReplication(t, c, "/fallback-read", 3)

	// Kill one replica holder of the first block and read: the client
	// must fall back to another replica.
	loc, err := cl.GetFileInfo("/fallback-read")
	if err != nil || loc.NumBlocks == 0 {
		t.Fatalf("file info = %+v, %v", loc, err)
	}
	// Find a datanode holding any replica.
	victim := ""
	for _, dn := range c.DNs {
		if len(dn.Store().Blocks()) > 0 {
			victim = dn.Name()
			break
		}
	}
	if victim == "" {
		t.Fatal("no replica holders found")
	}
	c.KillDatanode(victim)
	verifyFile(t, cl, "/fallback-read", data)
}

func TestRecoveryInvalidatesStaleReplicas(t *testing.T) {
	c := startTestCluster(t, 9)
	cl, _ := c.NewClient("client")
	data := randomData(28, 2<<20)
	writeWithMidFault(t, cl, c, "/stale", data, proto.ModeHDFS, "dn5")
	verifyFile(t, cl, "/stale", data)

	// After recovery, stale-generation replicas must be invalidated
	// through heartbeats: eventually no live datanode stores a replica
	// whose generation differs from the namenode's current generation.
	// (Full replication-count restoration is asserted separately in
	// TestReReplicationAfterDatanodeDeath.)
	current := map[int64]uint64{}
	locs, err := c.NN.GetBlockLocations(nnapi.GetBlockLocationsReq{Path: "/stale"})
	if err != nil {
		t.Fatal(err)
	}
	for _, lb := range locs.Blocks {
		current[int64(lb.Block.ID)] = uint64(lb.Block.Gen)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		stale := 0
		for _, dn := range c.DNs {
			if dn.Name() == "dn5" {
				continue // dead node keeps whatever it had
			}
			for _, rep := range dn.Store().Blocks() {
				if gen, ok := current[int64(rep.Block.ID)]; ok && uint64(rep.Block.Gen) != gen {
					stale++
				}
			}
		}
		if stale == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d stale-generation replicas still present", stale)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func TestReReplicationAfterDatanodeDeath(t *testing.T) {
	c := startTestCluster(t, 9)
	cl, _ := c.NewClient("client")
	data := randomData(31, 1<<20) // 4 blocks at 256 KiB
	writeFile(t, cl, "/rerepl", data, proto.ModeHDFS)
	waitReplication(t, c, "/rerepl", 3)

	// Find a replica holder and kill it.
	victim := ""
	for _, dn := range c.DNs {
		if len(dn.Store().Blocks()) > 0 {
			victim = dn.Name()
			break
		}
	}
	if victim == "" {
		t.Fatal("no replica holders")
	}
	lost := len(c.Datanode(victim).Store().Blocks())
	c.KillDatanode(victim)

	// The namenode must detect the death and restore every block to 3
	// live replicas via datanode-to-datanode transfers.
	info, _ := cl.GetFileInfo("/rerepl")
	want := info.NumBlocks * 3
	deadline := time.Now().Add(10 * time.Second)
	for {
		total := 0
		for _, dn := range c.DNs {
			if dn.Name() == victim {
				continue
			}
			total += len(dn.Store().Blocks())
		}
		if total >= want {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("live replicas = %d, want %d (victim held %d)", total, want, lost)
		}
		time.Sleep(20 * time.Millisecond)
	}
	// Data stays readable and intact throughout.
	verifyFile(t, cl, "/rerepl", data)
}

func TestReadFailsOverOnCorruptReplica(t *testing.T) {
	c := startTestCluster(t, 9)
	cl, _ := c.NewClient("client")
	data := randomData(61, 300<<10) // 2 blocks
	writeFile(t, cl, "/corrupt", data, proto.ModeHDFS)

	// Corrupt every replica on ONE datanode that holds block replicas;
	// reads must detect the checksum mismatch and fail over to another
	// replica, returning intact data.
	corrupted := false
	for _, dn := range c.DNs {
		ms, ok := dn.Store().(*storage.MemStore)
		if !ok {
			t.Fatal("expected MemStore")
		}
		for _, rep := range dn.Store().Blocks() {
			if err := ms.Corrupt(rep.Block.ID, rep.Len/2); err != nil {
				t.Fatal(err)
			}
			corrupted = true
		}
		if corrupted {
			break
		}
	}
	if !corrupted {
		t.Fatal("found no replicas to corrupt")
	}
	verifyFile(t, cl, "/corrupt", data)
}

func TestReadFailsWhenAllReplicasCorrupt(t *testing.T) {
	c := startTestCluster(t, 3)
	cl, _ := c.NewClient("client")
	data := randomData(62, 100<<10) // 1 block, 3 replicas
	writeFile(t, cl, "/doomed", data, proto.ModeHDFS)
	for _, dn := range c.DNs {
		ms := dn.Store().(*storage.MemStore)
		for _, rep := range dn.Store().Blocks() {
			if err := ms.Corrupt(rep.Block.ID, 0); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := cl.ReadAll("/doomed"); err == nil {
		t.Fatal("read succeeded with every replica corrupt")
	}
}

func TestStreamingReadMidBlockFailover(t *testing.T) {
	// Corrupt a byte deep inside one replica of a large block: the
	// stream serves several good packets from it first, hits the
	// checksum failure mid-block, and must resume at the exact offset on
	// another replica — the caller sees one seamless, correct stream.
	c := startTestCluster(t, 9)
	cl, _ := c.NewClient("client")
	opts := testWriteOptions()
	data := randomData(63, int(opts.BlockSize)) // exactly 1 block (16 packets)
	w, err := cl.CreateHDFS("/midblock", opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	// Corrupt the replica on the datanode the namenode will offer FIRST
	// to this client, late in the block (after several packets).
	lb := waitReplication(t, c, "/midblock", 3)[0]
	ms := c.Datanode(lb.Targets[0].Name).Store().(*storage.MemStore)
	if err := ms.Corrupt(lb.Block.ID, opts.BlockSize-1000); err != nil {
		t.Fatal(err)
	}

	verifyFile(t, cl, "/midblock", data)
}

// probeDialer opens data connections on c's network, each frame
// bounded by 2 s.
func probeDialer(c *Cluster) proto.Dialer {
	return proto.Dialer{Network: c.EffNet, Local: "probe", Clock: clock.System, Progress: 2 * time.Second}
}

// onBothTransports boots a one-datanode cluster with Start and with
// StartTCP and runs f on each.
func onBothTransports(t *testing.T, f func(t *testing.T, c *Cluster)) {
	for _, tr := range []struct {
		name  string
		start func(Config) (*Cluster, error)
	}{{"mem", Start}, {"tcp", StartTCP}} {
		t.Run(tr.name, func(t *testing.T) {
			c, err := tr.start(Config{NumDatanodes: 1, Logf: t.Logf})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(c.Stop)
			f(t, c)
		})
	}
}

// within fails the test unless f returns within d.
func within(t *testing.T, d time.Duration, what string, f func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		f()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(d):
		t.Fatalf("%s still running after %v", what, d)
	}
}

// TestStopClosesIdleDataConn: a peer holding a data connection open
// without sending its header does not hold a datanode's Stop up for the
// header read's DataTimeout: Stop closes the connection and returns.
func TestStopClosesIdleDataConn(t *testing.T) {
	onBothTransports(t, func(t *testing.T, c *Cluster) {
		dn := c.DNs[0]
		conn, err := c.EffNet.Dial("idle", dn.Info().Addr)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		// The datanode accepts in dial order, so once it has refused a read
		// dialed after the idle conn, it holds the idle conn too.
		d := probeDialer(c)
		if _, _, err := d.Open(dn.Info().Addr, proto.OpReadBlock, &proto.ReadBlockHeader{Block: block.Block{ID: 404, Gen: 1}}); !errors.Is(err, proto.ErrSetupRefused) {
			t.Fatalf("read of a missing block: err = %v, want ErrSetupRefused", err)
		}
		within(t, time.Second, "Datanode.Stop with an idle inbound data connection", dn.Stop)
		conn.SetReadDeadline(time.Now().Add(time.Second))
		if _, err := conn.Read(make([]byte, 1)); err == nil || transport.IsTimeout(err) {
			t.Fatalf("read on the idle connection after Stop: err = %v, want it closed", err)
		}
	})
}

// TestKillDatanodeEndsOpenPipeline: a killed datanode serves no more of
// a write pipeline that was open when it died. KillDatanode returns at
// once, and a packet written after it is never acked.
func TestKillDatanodeEndsOpenPipeline(t *testing.T) {
	onBothTransports(t, func(t *testing.T, c *Cluster) {
		dn := c.DNs[0]
		d := probeDialer(c)
		pc, _, err := d.Open(dn.Info().Addr, proto.OpWriteBlock, &proto.WriteBlockHeader{
			Block: block.Block{ID: 1, Gen: 1}, Client: "probe", Mode: proto.ModeHDFS})
		if err != nil {
			t.Fatal(err)
		}
		defer pc.Close()
		data := randomData(31, 2*checksum.DefaultChunkSize)
		packet := func(seq int64) *proto.Packet {
			p := data[seq*checksum.DefaultChunkSize : (seq+1)*checksum.DefaultChunkSize]
			return &proto.Packet{Seqno: seq, Offset: seq * checksum.DefaultChunkSize, Data: p,
				RawSums: checksum.AppendEncoded(nil, p, checksum.DefaultChunkSize)}
		}
		if err := pc.WritePacket(packet(0)); err != nil {
			t.Fatal(err)
		}
		if ack, err := pc.ReadAck(); err != nil || !ack.OK() || ack.Seqno != 0 {
			t.Fatalf("ack of packet 0 = %+v, %v", ack, err)
		}
		within(t, time.Second, "KillDatanode on an open write pipeline", func() { c.KillDatanode(dn.Name()) })
		_ = pc.WritePacket(packet(1)) // may fail already: the datanode is gone
		if ack, err := pc.ReadAck(); err == nil {
			t.Fatalf("the killed datanode answered a packet written after it died: %+v", ack)
		}
	})
}
