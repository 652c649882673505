package cluster

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/block"
	"repro/internal/faultnet"
	"repro/internal/nnapi"
	"repro/internal/proto"
	"repro/internal/storage"
)

// logWatch is a Config.Logf that forwards to the test log and remembers
// every line, so a test can wait for a component to report something.
type logWatch struct {
	t     *testing.T
	mu    sync.Mutex
	lines []string
}

func (l *logWatch) logf(format string, args ...any) {
	l.t.Helper()
	line := fmt.Sprintf(format, args...)
	l.mu.Lock()
	l.lines = append(l.lines, line)
	l.mu.Unlock()
	l.t.Log(line)
}

// saw reports whether some line so far contains every one of parts.
func (l *logWatch) saw(parts ...string) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
next:
	for _, line := range l.lines {
		for _, p := range parts {
			if !strings.Contains(line, p) {
				continue next
			}
		}
		return true
	}
	return false
}

// waitFor polls cond every 10 ms until it holds, failing the test with
// what after limit.
func waitFor(t *testing.T, limit time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(limit)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out after %v waiting for %s", limit, what)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// waitReplication waits until the namenode lists at least n replicas of
// every block of path, and returns the blocks. A write completes at
// minimal replication with the other hops' reports still queued, so a
// test that picks or kills a holder right after a write waits here
// first, as HDFS's DFSTestUtil.waitReplication has its tests do.
func waitReplication(t *testing.T, c *Cluster, path string, n int) []block.LocatedBlock {
	t.Helper()
	var blocks []block.LocatedBlock
	waitFor(t, 15*time.Second, fmt.Sprintf("%d replicas of every block of %s", n, path), func() bool {
		locs, err := c.NN.GetBlockLocations(nnapi.GetBlockLocationsReq{Path: path, Client: "client"})
		if err != nil {
			t.Fatal(err)
		}
		blocks = locs.Blocks
		for _, lb := range blocks {
			if len(lb.Targets) < n {
				return false
			}
		}
		return len(blocks) > 0
	})
	return blocks
}

// TestReReplicationKeepsStoredChecksums: a replica that rotted on its
// datanode must not be laundered by re-replication. With replication 2
// on three datanodes, one holder's bytes are corrupted and the other
// holder is killed, so the corrupt replica is the only source the
// namenode can order a copy from. The source sends the checksums it
// stored at write time, the target's verification refuses the packet,
// and the third datanode never finalizes (or reports) the block; a read
// fails rather than return the wrong bytes.
func TestReReplicationKeepsStoredChecksums(t *testing.T) {
	logs := &logWatch{t: t}
	c, err := Start(Config{NumDatanodes: 3, Seed: 7, Logf: logs.logf})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Stop)
	cl, err := c.NewClient("client")
	if err != nil {
		t.Fatal(err)
	}
	data := randomData(91, 100<<10) // one block
	opts := testWriteOptions()
	opts.Replication = 2
	w, err := create(cl, "/rotten", opts, proto.ModeHDFS)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	waitReplication(t, c, "/rotten", 2)

	var holders []string
	spare := ""
	for _, dn := range c.DNs {
		if len(dn.Store().Blocks()) > 0 {
			holders = append(holders, dn.Name())
		} else {
			spare = dn.Name()
		}
	}
	if len(holders) != 2 || spare == "" {
		t.Fatalf("holders = %v, spare = %q; want two holders and one empty datanode", holders, spare)
	}
	rotten, victim := holders[0], holders[1]
	store := c.Datanode(rotten).Store().(*storage.MemStore)
	for _, rep := range store.Blocks() {
		if err := store.Corrupt(rep.Block.ID, rep.Len/2); err != nil {
			t.Fatal(err)
		}
	}
	c.KillDatanode(victim)

	// The namenode orders rotten to copy the block to spare. Until rotten
	// reports that copy refused, spare must not hold a finalized replica.
	spareStore := c.Datanode(spare).Store()
	waitFor(t, 10*time.Second, rotten+" to have a replicate command refused", func() bool {
		if n := len(spareStore.Blocks()); n > 0 {
			t.Fatalf("%s finalized %d replica(s) copied from the corrupt source", spare, n)
		}
		return logs.saw("datanode "+rotten, "replicate")
	})
	if n := len(spareStore.Blocks()); n > 0 {
		t.Fatalf("%s finalized %d replica(s) copied from the corrupt source", spare, n)
	}
	loc, err := c.NN.GetBlockLocations(nnapi.GetBlockLocationsReq{Path: "/rotten"})
	if err != nil {
		t.Fatal(err)
	}
	for _, lb := range loc.Blocks {
		for _, name := range lb.Names() {
			if name == spare {
				t.Fatalf("namenode lists %s as a holder of %v", spare, lb.Block)
			}
		}
	}
	if got, err := cl.ReadAll("/rotten"); err == nil && !bytes.Equal(got, data) {
		t.Fatalf("read returned wrong bytes (first diff at %d)", firstDiff(got, data))
	}
}

// TestDatanodeSurvivesLostNamenodeReplies blackholes dn3's requests to
// the namenode — the connection stays up, nothing arrives, no reply ever
// comes — for long enough that the namenode declares dn3 dead, then heals
// the link. Every namenode call a datanode makes is bounded (by its
// DataTimeout), so its heartbeat loop and its reporter are still running:
// dn3 is alive at the namenode again soon after, and the block it
// committed during the outage, whose report could not be delivered, is
// reported then.
func TestDatanodeSurvivesLostNamenodeReplies(t *testing.T) {
	c, fn, cl := startHangCluster(t, Config{
		DatanodeDataTimeout: 200 * time.Millisecond,
		Expiry:              time.Second,
	})
	active := func() int {
		info, err := c.NN.ClusterInfo(nnapi.ClusterInfoReq{})
		if err != nil {
			t.Fatal(err)
		}
		return info.ActiveDatanodes
	}
	fn.SetLink("dn3", NamenodeAddr, faultnet.Fault{DropAfter: -1})
	t.Cleanup(func() { fn.ClearLink("dn3", NamenodeAddr) })

	// dn3 is still alive in the namenode's eyes, so it is in the pipeline
	// (last of three) and commits the block; its blockReceived is lost.
	data := randomData(92, 100<<10) // one block
	writeFile(t, cl, "/during-outage", data, proto.ModeHDFS)
	if n := len(c.Datanode("dn3").Store().Blocks()); n != 1 {
		t.Fatalf("dn3 holds %d replicas, want the 1 written during the outage", n)
	}
	holdsAtNamenode := func(name string) bool {
		loc, err := c.NN.GetBlockLocations(nnapi.GetBlockLocationsReq{Path: "/during-outage"})
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range loc.Blocks[0].Names() {
			if n == name {
				return true
			}
		}
		return false
	}
	if holdsAtNamenode("dn3") {
		t.Fatal("dn3's report reached the namenode through a blackholed link")
	}
	waitFor(t, 10*time.Second, "the namenode to declare dn3 dead", func() bool { return active() == 2 })

	fn.ClearLink("dn3", NamenodeAddr)
	// One call is at most four attempts of 200 ms plus backoff; the
	// heartbeat after it wakes the reporter.
	waitFor(t, 5*time.Second, "dn3 to heartbeat again", func() bool { return active() == 3 })
	waitFor(t, 5*time.Second, "dn3's queued block report", func() bool { return holdsAtNamenode("dn3") })
}

// TestMirrorDialIsBounded hangs dials from dn1 to dn2. dn1's write
// handler must give the dial up within its DataTimeout and refuse the
// pipeline setup — not sit in the dial for as long as the link stays
// hung — and the client, told which hop failed, rebuilds around it.
func TestMirrorDialIsBounded(t *testing.T) {
	logs := &logWatch{t: t}
	_, fn, cl := startHangCluster(t, Config{
		DatanodeDataTimeout: 100 * time.Millisecond,
		Logf:                logs.logf,
	})
	fn.SetLink("dn1", "dn2", faultnet.Fault{DialHang: true})
	// Registered after startHangCluster, so the link heals before
	// Cluster.Stop waits for dn1's handlers.
	t.Cleanup(func() { fn.ClearLink("dn1", "dn2") })

	data := randomData(93, 300<<10)
	w, err := cl.CreateSmarth("/mirror-dial", hangWriteOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if !logs.saw("datanode dn1: mirror dn2", "timeout") {
		t.Fatal("dn1 never gave up dialing dn2 while the link was hung")
	}
	if w.Stats().Recoveries == 0 {
		t.Fatal("write completed without recovery although dn1 could not reach dn2")
	}
	verifyFile(t, cl, "/mirror-dial", data)
}
