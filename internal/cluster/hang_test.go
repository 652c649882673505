package cluster

import (
	"sync"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/clock"
	"repro/internal/faultnet"
	"repro/internal/transport"
)

// hangTimeouts are tight enough that a wedged node is detected in
// fractions of a second of (possibly virtual) time rather than the
// production-scale defaults.
func hangTimeouts() client.Timeouts {
	return client.Timeouts{
		Progress: 500 * time.Millisecond,
		RPC:      time.Second,
	}
}

// startHangCluster boots a 3-datanode cluster behind faultnet with racks
// and speed records rigged so every SMARTH pipeline is deterministically
// [dn1, dn2, dn3]: dn1 is the client's fastest recorded node (a TopN of
// one puts it first), dn2 is the only node on a remote rack (second
// replica), and dn3 is the only node left. Tests can therefore wedge a
// chosen pipeline position by name.
func startHangCluster(t *testing.T, cfg Config) (*Cluster, *faultnet.Network, *client.Client) {
	t.Helper()
	var fn *faultnet.Network
	cfg.NumDatanodes = 3
	cfg.RackFor = func(i int) string {
		if i == 1 {
			return "/rack-b"
		}
		return "/rack-a"
	}
	cfg.Seed = 7
	cfg.WrapNetwork = func(m *transport.MemNetwork) transport.Network {
		fn = faultnet.Wrap(m, 7)
		return fn
	}
	if cfg.ClientTimeouts == (client.Timeouts{}) {
		cfg.ClientTimeouts = hangTimeouts()
	}
	if cfg.Logf == nil {
		cfg.Logf = t.Logf
	}
	c, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Stop)
	cl, err := c.NewClient("client")
	if err != nil {
		t.Fatal(err)
	}
	cl.Recorder().Record("dn1", 64<<20, time.Second)
	cl.Recorder().Record("dn2", 32<<20, time.Second)
	cl.Recorder().Record("dn3", 16<<20, time.Second)
	cl.SendHeartbeat()
	return c, fn, cl
}

// hangWriteOptions keeps the namenode's pipeline order so the rigged
// placement fully determines each datanode's position.
func hangWriteOptions() client.WriteOptions {
	opts := testWriteOptions()
	opts.DisableLocalOpt = true
	return opts
}

// dripWrite feeds data in 32 KiB chunks, invoking atHalf once when half
// the payload is in. Write errors are fatal: recovery is expected to
// happen inside Write/Close, not to surface from them.
func dripWrite(t *testing.T, w client.Writer, data []byte, atHalf func()) {
	t.Helper()
	var once sync.Once
	half := len(data) / 2
	for off := 0; off < len(data); {
		n := 32 << 10
		if off+n > len(data) {
			n = len(data) - off
		}
		if off >= half {
			once.Do(atHalf)
		}
		if _, err := w.Write(data[off : off+n]); err != nil {
			t.Fatalf("write at %d: %v", off, err)
		}
		off += n
	}
}

// TestSmarthRecoversFromHungDatanode wedges one datanode mid-write — the
// process neither crashes nor closes its connections, it just stops —
// at each pipeline position in turn. The client (or an upstream
// datanode) must detect the stall through a deadline and recover per
// Algorithm 4, completing the file with verified integrity.
func TestSmarthRecoversFromHungDatanode(t *testing.T) {
	positions := []struct {
		name   string
		victim string
	}{
		{"first", "dn1"},
		{"interior", "dn2"},
		{"last", "dn3"},
	}
	for _, tc := range positions {
		t.Run(tc.name, func(t *testing.T) {
			_, fn, cl := startHangCluster(t, Config{DatanodeDataTimeout: 500 * time.Millisecond})
			// Registered after startHangCluster, so this thaw runs before
			// Cluster.Stop and the wedged node can shut down.
			t.Cleanup(func() { fn.Thaw(tc.victim) })

			path := "/hang-" + tc.name
			data := randomData(81, 768<<10) // 3 blocks
			w, err := cl.CreateSmarth(path, hangWriteOptions())
			if err != nil {
				t.Fatal(err)
			}
			dripWrite(t, w, data, func() {
				t.Logf("freezing %s", tc.victim)
				fn.Freeze(tc.victim)
			})
			if err := w.Close(); err != nil {
				t.Fatalf("close: %v", err)
			}
			st := w.Stats()
			if st.Recoveries == 0 {
				t.Fatal("write completed without any recovery: the stall was never detected")
			}
			if st.ActivePipelines != 0 {
				t.Fatalf("ActivePipelines = %d after Close, want 0", st.ActivePipelines)
			}
			verifyFile(t, cl, path, data)
		})
	}
}

// TestSmarthRecoversFromHungDatanodeVirtualClock replays the interior
// hang entirely under a manually advanced clock: every deadline, backoff
// and heartbeat runs on virtual time, driven by a background advancer.
func TestSmarthRecoversFromHungDatanodeVirtualClock(t *testing.T) {
	clk := clock.NewManual(time.Unix(0, 0))
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				clk.Advance(2 * time.Millisecond)
				time.Sleep(100 * time.Microsecond)
			}
		}
	}()
	// The advancer must outlive cluster shutdown (heartbeat loops sleep
	// on the virtual clock), so its stop is registered first and runs
	// last.
	t.Cleanup(func() { close(stop); wg.Wait() })

	_, fn, cl := startHangCluster(t, Config{
		Clock:               clk,
		DatanodeDataTimeout: 500 * time.Millisecond,
	})
	t.Cleanup(func() { fn.Thaw("dn2") })

	data := randomData(82, 768<<10)
	w, err := cl.CreateSmarth("/hang-virtual", hangWriteOptions())
	if err != nil {
		t.Fatal(err)
	}
	dripWrite(t, w, data, func() { fn.Freeze("dn2") })
	if err := w.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	st := w.Stats()
	if st.Recoveries == 0 {
		t.Fatal("write completed without any recovery under the virtual clock")
	}
	if st.ActivePipelines != 0 {
		t.Fatalf("ActivePipelines = %d after Close, want 0", st.ActivePipelines)
	}
	verifyFile(t, cl, "/hang-virtual", data)
}

// TestSmarthRecoversFromHungNamenode freezes the namenode mid-write and
// thaws it before the client's RPC retry budget runs out: per-call
// timeouts plus backoff carry the write through the outage, and the
// addBlock retry de-duplication keeps the file free of orphan blocks.
func TestSmarthRecoversFromHungNamenode(t *testing.T) {
	_, fn, cl := startHangCluster(t, Config{
		// A thawed namenode must not find all datanodes expired before
		// their queued heartbeats are processed.
		Expiry: 5 * time.Second,
		ClientTimeouts: client.Timeouts{
			// Generous: datanode blockReceived reports stall with the
			// namenode, delaying acks; only RPC retries should fire here.
			Progress: 2 * time.Second,
			RPC:      300 * time.Millisecond,
		},
	})
	t.Cleanup(func() { fn.Thaw(NamenodeAddr) })

	data := randomData(83, 768<<10)
	w, err := cl.CreateSmarth("/hang-nn", hangWriteOptions())
	if err != nil {
		t.Fatal(err)
	}
	dripWrite(t, w, data, func() {
		t.Log("freezing namenode")
		fn.Freeze(NamenodeAddr)
		go func() {
			time.Sleep(600 * time.Millisecond)
			fn.Thaw(NamenodeAddr)
		}()
	})
	if err := w.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	verifyFile(t, cl, "/hang-nn", data)
	// Retried addBlock attempts executed by the thawed namenode must not
	// have appended orphan blocks (768 KiB at 256 KiB blocks = exactly 3).
	info, err := cl.GetFileInfo("/hang-nn")
	if err != nil {
		t.Fatal(err)
	}
	if info.NumBlocks != 3 {
		t.Fatalf("NumBlocks = %d, want 3 (addBlock retries must be idempotent)", info.NumBlocks)
	}
}

// TestCloseTearsDownPipelinesOnFailure: when the tail block flushed by
// Close cannot land anywhere, Close must return the error with no
// pipeline still registered as active.
func TestCloseTearsDownPipelinesOnFailure(t *testing.T) {
	_, fn, cl := startHangCluster(t, Config{
		DatanodeDataTimeout: 200 * time.Millisecond,
		ClientTimeouts: client.Timeouts{
			Progress: 200 * time.Millisecond,
			RPC:      500 * time.Millisecond,
		},
	})
	all := []string{"dn1", "dn2", "dn3"}
	t.Cleanup(func() {
		for _, dn := range all {
			fn.Thaw(dn)
		}
	})

	data := randomData(84, 320<<10) // one full block plus a 64 KiB tail
	w, err := cl.CreateSmarth("/doomed-tail", hangWriteOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(data); err != nil {
		t.Fatal(err)
	}
	for _, dn := range all {
		fn.Freeze(dn)
	}
	if err := w.Close(); err == nil {
		t.Fatal("Close succeeded with every datanode wedged")
	}
	if n := w.Stats().ActivePipelines; n != 0 {
		t.Fatalf("ActivePipelines = %d after failed Close, want 0", n)
	}
}
