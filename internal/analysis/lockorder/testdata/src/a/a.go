// Package a is the lockorder analysistest fixture: the ranked namenode
// mutex holders are mirrored by type name (the analyzer classifies
// structurally, so the fixture exercises exactly the production
// matching). Each diagnostic class — inversion, a second acquire of a
// held lock, and the TryLock branch — has a case that reports and one
// that does not.
package a

import "sync"

type namesystem struct {
	mu    sync.Mutex
	files map[string]int
}

type datanodeManager struct {
	mu sync.Mutex
}

type replicationManager struct {
	mu sync.Mutex
}

type Namenode struct {
	mu sync.Mutex
}

// ordered walks the full documented order left to right: clean.
func ordered(ns *namesystem, dm *datanodeManager, rm *replicationManager, nn *Namenode) {
	ns.mu.Lock()
	defer ns.mu.Unlock()
	dm.mu.Lock()
	dm.mu.Unlock()
	rm.mu.Lock()
	rm.mu.Unlock()
	nn.mu.Lock()
	nn.mu.Unlock()
}

// inverted takes the namesystem while holding the datanode manager: the
// deadlock class.
func inverted(dm *datanodeManager, ns *namesystem) {
	dm.mu.Lock()
	ns.mu.Lock() // want `acquires namesystem \(rank 1\) while holding datanode manager \(rank 2\)`
	ns.mu.Unlock()
	dm.mu.Unlock()
}

// adminFirst holds the admin mutex across a subsystem acquisition.
func adminFirst(nn *Namenode, rm *replicationManager) {
	nn.mu.Lock()
	rm.mu.Lock() // want `acquires replication manager \(rank 3\) while holding admin mutex \(rank 4\)`
	rm.mu.Unlock()
	nn.mu.Unlock()
}

// releasedBetween is sequential, not nested: clean.
func releasedBetween(ns *namesystem, dm *datanodeManager) {
	dm.mu.Lock()
	dm.mu.Unlock()
	ns.mu.Lock()
	ns.mu.Unlock()
}

// relock takes the namesystem lock a second time: a self-deadlock.
func relock(ns *namesystem) {
	ns.mu.Lock()
	defer ns.mu.Unlock()
	ns.mu.Lock() // want `acquires the namesystem lock while already holding it`
	ns.mu.Unlock()
}

// loopLocks acquires and releases per iteration: clean across the
// walker's loop fixpoint.
func loopLocks(ns *namesystem, n int) {
	for i := 0; i < n; i++ {
		ns.mu.Lock()
		ns.mu.Unlock()
	}
}

// branchUnlock releases on an early-return branch: clean.
func branchUnlock(ns *namesystem, cond bool) {
	ns.mu.Lock()
	if cond {
		ns.mu.Unlock()
		return
	}
	ns.mu.Unlock()
}

// tryHeld: the lock is held on a TryLock's taken branch, so locking it
// again there deadlocks.
func tryHeld(ns *namesystem) {
	if ns.mu.TryLock() {
		ns.mu.Lock() // want `acquires the namesystem lock while already holding it`
		ns.mu.Unlock()
	}
}

// tryFailed falls back to Lock only where the TryLock failed: clean.
func tryFailed(ns *namesystem) {
	if ns.mu.TryLock() {
		ns.mu.Unlock()
		return
	}
	ns.mu.Lock()
	ns.mu.Unlock()
}
