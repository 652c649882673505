package namenode

import (
	"sort"
	"time"

	"repro/internal/block"
	"repro/internal/nnapi"
	"repro/internal/proto"
)

// pendingReplicationTimeout is how long the namenode waits for a
// commanded replication to produce a blockReceived before re-issuing it.
const pendingReplicationTimeout = 30 * time.Second

// replicationManager holds the re-replication work handed to datanodes
// through their heartbeats. Like the rest of the namenode's state it is
// guarded by nn.mu.
type replicationManager struct {
	// pending maps block ID to when a replication command was issued; a
	// blockReceived for the block clears it.
	pending map[block.ID]time.Time
	// queue holds issued commands per source datanode, drained by that
	// datanode's heartbeats.
	queue map[string][]nnapi.ReplicateCmd
	// lastScan rate-limits full scans; zero forces the next one.
	lastScan time.Time
	// scanEvery bounds scan frequency (a fraction of the expiry window
	// so re-replication starts promptly after a death is detected).
	scanEvery time.Duration
}

func newReplicationManager(expiry time.Duration) *replicationManager {
	return &replicationManager{
		pending:   make(map[block.ID]time.Time),
		queue:     make(map[string][]nnapi.ReplicateCmd),
		scanEvery: expiry / 4,
	}
}

// replicationWorkFor runs a (rate-limited) scan for under-replicated
// blocks, queueing copy commands on a live holder of each, then drains
// the commands queued for dn. Namespaces in the reproduction are small,
// so the O(blocks) scan under the namenode lock is fine.
func (nn *Namenode) replicationWorkFor(dn string) []nnapi.ReplicateCmd {
	now := nn.clk.Now()
	rm := nn.repl
	// No maintenance while in safe mode: replica locations are still
	// incomplete, so lease recovery could drop merely-unreported blocks
	// and the replication scan would copy everything spuriously.
	if nn.checkSafeMode() == nil && now.Sub(rm.lastScan) >= rm.scanEvery {
		rm.lastScan = now
		nn.expireLeases(now)
		nn.scanUnderReplicated(now)
	}
	cmds := rm.queue[dn]
	delete(rm.queue, dn)
	return cmds
}

// scanUnderReplicated queues a copy for every complete block whose
// live-replica count is below its replication factor, in block-ID order
// (placement draws the shared rng per block). Healthy blocks cost a few
// map probes each.
func (nn *Namenode) scanUnderReplicated(now time.Time) {
	var under []*blockMeta
	for _, meta := range nn.ns.blocks {
		// Under-construction blocks are the writer's job.
		if meta.complete && len(meta.locations) > 0 && nn.dm.countAlive(meta.locations, now) < meta.replication {
			under = append(under, meta)
		}
	}
	sort.Slice(under, func(i, j int) bool { return under[i].cur.ID < under[j].cur.ID })
	for _, meta := range under {
		if issued, ok := nn.repl.pending[meta.cur.ID]; ok && now.Sub(issued) < pendingReplicationTimeout {
			continue
		}
		// The live holders are both what placement must avoid and the
		// copy's source.
		var holders []string
		for _, holder := range meta.locations {
			if e := nn.dm.nodes[holder]; e != nil && nn.dm.isAlive(e, now) {
				holders = append(holders, holder)
			}
		}
		if len(holders) == 0 {
			continue
		}
		source := holders[0]
		targets, err := nn.place(proto.ModeHDFS, "", meta.replication-len(holders), holders)
		if err != nil || len(targets) == 0 {
			continue // no capacity to restore replication yet
		}
		nn.repl.pending[meta.cur.ID] = now
		nn.repl.queue[source] = append(nn.repl.queue[source], nnapi.ReplicateCmd{Block: meta.cur, Targets: targets})
	}
}
