package namenode

import (
	"sync"
	"time"

	"repro/internal/block"
	"repro/internal/nnapi"
	"repro/internal/proto"
)

// pendingReplicationTimeout is how long the namenode waits for a
// commanded replication to produce a blockReceived before re-issuing it.
const pendingReplicationTimeout = 30 * time.Second

// replicationManager finds under-replicated blocks of complete files and
// hands copy work to live replica holders through their heartbeats. It
// has its own lock (after the namesystem and the datanode manager in the
// namenode lock order), so satisfied() on the block-report hot path
// never waits behind a scan.
type replicationManager struct {
	mu sync.Mutex
	// pending maps block ID to when a replication command was issued.
	pending map[block.ID]time.Time
	// queue holds issued commands per source datanode, drained by that
	// datanode's heartbeats.
	queue map[string][]nnapi.ReplicateCmd
	// lastScan rate-limits full scans.
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

// satisfied clears the pending marker once a new replica arrived.
func (rm *replicationManager) satisfied(id block.ID) {
	rm.mu.Lock()
	delete(rm.pending, id)
	rm.mu.Unlock()
}

// kick forces the next replicationWorkFor call to scan.
func (rm *replicationManager) kick() {
	rm.mu.Lock()
	rm.lastScan = time.Time{}
	rm.mu.Unlock()
}

// shouldScan claims a scan slot when the rate limit allows one.
func (rm *replicationManager) shouldScan(now time.Time) bool {
	rm.mu.Lock()
	defer rm.mu.Unlock()
	if now.Sub(rm.lastScan) < rm.scanEvery {
		return false
	}
	rm.lastScan = now
	return true
}

// pendingRecent reports whether a command for the block was issued less
// than pendingReplicationTimeout ago.
func (rm *replicationManager) pendingRecent(id block.ID, now time.Time) bool {
	rm.mu.Lock()
	defer rm.mu.Unlock()
	issued, ok := rm.pending[id]
	return ok && now.Sub(issued) < pendingReplicationTimeout
}

// enqueue records a command for source and marks the block pending.
func (rm *replicationManager) enqueue(source string, cmd nnapi.ReplicateCmd, now time.Time) {
	rm.mu.Lock()
	rm.pending[cmd.Block.ID] = now
	rm.queue[source] = append(rm.queue[source], cmd)
	rm.mu.Unlock()
}

// enqueueMove queues a balancer transfer without marking the block
// under-replicated.
func (rm *replicationManager) enqueueMove(source string, cmd nnapi.ReplicateCmd) {
	rm.mu.Lock()
	rm.queue[source] = append(rm.queue[source], cmd)
	rm.mu.Unlock()
}

// drain hands dn its queued commands.
func (rm *replicationManager) drain(dn string) []nnapi.ReplicateCmd {
	rm.mu.Lock()
	defer rm.mu.Unlock()
	cmds := rm.queue[dn]
	delete(rm.queue, dn)
	return cmds
}

// replicationWorkFor runs a (rate-limited) scan for under-replicated
// blocks, queueing copy commands on a live holder of each, then drains
// the commands queued for dn. Namespaces in the reproduction are small,
// so the O(blocks) scan under the namesystem lock is fine; placement for
// what it finds runs after the lock is released.
func (nn *Namenode) replicationWorkFor(dn string) []nnapi.ReplicateCmd {
	now := nn.clk.Now()
	// No maintenance while in safe mode: replica locations are still
	// incomplete, so lease recovery could drop merely-unreported blocks
	// and the replication scan would copy everything spuriously.
	if nn.checkSafeMode() == nil && nn.repl.shouldScan(now) {
		nn.ns.recoverExpired(now, DefaultLeaseTimeout)
		nn.forgetSilentClients(now)
		nn.scanUnderReplicated(now)
	}
	return nn.repl.drain(dn)
}

func (nn *Namenode) scanUnderReplicated(now time.Time) {
	// A block counts as replicated only by placeable holders (live and
	// not decommissioning); sources for copies may additionally be
	// decommissioning nodes, which keep serving until drained.
	placeable := make(map[string]bool)
	for _, n := range nn.dm.placeableNames() {
		placeable[n] = true
	}
	aliveSet := make(map[string]bool)
	for _, n := range nn.dm.aliveNames() {
		aliveSet[n] = true
	}
	nn.ns.underReplicated(placeable, func(cur block.Block, holders []string, missing int) {
		if nn.repl.pendingRecent(cur.ID, now) {
			return
		}
		var goodHolders, sourceHolders []string
		for _, holder := range holders {
			if placeable[holder] {
				goodHolders = append(goodHolders, holder)
			}
			if aliveSet[holder] {
				sourceHolders = append(sourceHolders, holder)
			}
		}
		if len(sourceHolders) == 0 {
			return
		}
		source := sourceHolders[0]
		exclude := append([]string{}, goodHolders...)
		exclude = append(exclude, sourceHolders...)
		targets, err := nn.place(proto.ModeHDFS, "", missing, exclude)
		if err != nil || len(targets) == 0 {
			return // no capacity to restore replication yet
		}
		nn.repl.enqueue(source, nnapi.ReplicateCmd{Block: cur, Targets: targets}, now)
	})
}
