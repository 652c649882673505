// Package a is the lockorder analysistest fixture: the namenode's one
// mutex is mirrored by type and field name (the analyzer matches
// structurally, so the fixture exercises exactly the production
// matching). Each diagnostic class — a second acquire of the held lock
// and a call into a locking method while the lock is held — has a case
// that reports and one that does not.
package a

import "sync"

type Namenode struct {
	mu    sync.Mutex
	beats int
}

// Heartbeat is an exported method: it takes the lock at entry.
func (nn *Namenode) Heartbeat() {
	nn.mu.Lock()
	defer nn.mu.Unlock()
	nn.beats++
}

// drain is an unexported helper: it runs under its caller's lock and
// takes none.
func (nn *Namenode) drain() { nn.beats = 0 }

// beatAgain reaches Heartbeat through a helper: it takes the lock too.
func (nn *Namenode) beatAgain() { nn.Heartbeat() }

// relock takes the lock a second time: a self-deadlock.
func relock(nn *Namenode) {
	nn.mu.Lock()
	defer nn.mu.Unlock()
	nn.mu.Lock() // want `acquires Namenode.mu while already holding it`
	nn.mu.Unlock()
}

// loopLocks acquires and releases per iteration: clean across the
// walker's loop fixpoint.
func loopLocks(nn *Namenode, n int) {
	for i := 0; i < n; i++ {
		nn.mu.Lock()
		nn.mu.Unlock()
	}
}

// Register calls another locking method while holding the lock, once
// directly and once through a helper: the same deadlock one call away.
func (nn *Namenode) Register() {
	nn.mu.Lock()
	defer nn.mu.Unlock()
	nn.Heartbeat() // want `calls Namenode.Heartbeat, which takes Namenode.mu, while holding it`
	nn.beatAgain() // want `calls Namenode.beatAgain, which takes Namenode.mu, while holding it`
}

// Decommission calls a helper that takes no lock while holding it, and
// a locking method only after releasing it or on another goroutine:
// clean.
func (nn *Namenode) Decommission() {
	nn.mu.Lock()
	nn.drain()
	go nn.Heartbeat()
	nn.mu.Unlock()
	nn.Heartbeat()
}

// stopEarly unlocks only on a branch that returns: the code after the
// branch still runs under the lock, so the call below deadlocks.
func (nn *Namenode) stopEarly(stop bool) {
	nn.mu.Lock()
	if stop {
		nn.mu.Unlock()
		return
	}
	nn.Heartbeat() // want `calls Namenode.Heartbeat, which takes Namenode.mu, while holding it`
	nn.mu.Unlock()
}
