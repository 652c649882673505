// Package core implements SMARTH's decision algorithms — the paper's
// primary contribution, separated from the data plane so that both the
// real cluster implementation and the discrete-event simulator execute
// exactly the same logic:
//
//   - client-side transfer-speed recording (per first-datanode), reported
//     to the namenode with heartbeats every 3 seconds;
//   - the namenode-side speed registry backing the global optimization
//     (Algorithm 1): choose the first pipeline datanode at random among
//     the client's TopN fastest, n = activeDatanodes / replication;
//   - the client-side local optimization (Algorithm 2): sort pipeline
//     targets by locally-observed speed, and with probability
//     1 - threshold (threshold = 0.8) swap the first target with a random
//     other to refresh stale measurements;
//   - the pipeline-concurrency rules of §IV-C: max pipelines =
//     activeDatanodes / replication and at most one active pipeline per
//     datanode per client.
package core

import (
	"cmp"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"
)

// HeartbeatInterval is how often clients push speed records to the
// namenode (the paper piggybacks on Hadoop's 3-second heartbeat).
const HeartbeatInterval = 3 * time.Second

// SwapThreshold is Algorithm 2's threshold: a uniform r in [0,1) greater
// than this triggers the exploration swap, i.e. swap probability 0.2.
const SwapThreshold = 0.8

// ewmaAlpha weights the newest block-transfer measurement when updating a
// datanode's recorded speed. High enough to track changing conditions,
// low enough to ride out single-block noise.
const ewmaAlpha = 0.5

// MaxPipelines is the paper's cap on concurrent pipelines for one client
// (§III-B / §IV-C): cluster size divided by the replication factor, and
// never below 1.
func MaxPipelines(activeDatanodes, replication int) int {
	if replication <= 0 {
		replication = 1
	}
	n := activeDatanodes / replication
	if n < 1 {
		n = 1
	}
	return n
}

// Recorder accumulates a client's observed transfer speeds to each first
// datanode it has used. It is safe for concurrent use (the streamer
// records while the heartbeat goroutine snapshots).
type Recorder struct {
	mu     sync.Mutex
	speeds map[string]float64 // datanode -> bytes/second (EWMA)
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder {
	return &Recorder{speeds: make(map[string]float64)}
}

// Record folds one block transfer (bytes sent to datanode dn over
// elapsed) into the datanode's speed estimate. Non-positive inputs are
// ignored.
func (r *Recorder) Record(dn string, bytes int64, elapsed time.Duration) {
	if bytes <= 0 || elapsed <= 0 {
		return
	}
	speed := float64(bytes) / elapsed.Seconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	if old, ok := r.speeds[dn]; ok {
		r.speeds[dn] = old + ewmaAlpha*(speed-old)
	} else {
		r.speeds[dn] = speed
	}
}

// Speed returns the recorded speed for dn (0 if never measured).
func (r *Recorder) Speed(dn string) float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.speeds[dn]
}

// Snapshot copies the current speed table, e.g. for a heartbeat payload.
func (r *Recorder) Snapshot() map[string]float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]float64, len(r.speeds))
	for k, v := range r.speeds {
		out[k] = v
	}
	return out
}

// Len returns the number of datanodes with a recorded speed.
func (r *Recorder) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.speeds)
}

// Registry is the namenode-side store of per-client speed records,
// updated from heartbeats; it backs Algorithm 1.
type Registry struct {
	mu      sync.RWMutex
	clients map[string]map[string]float64 // client -> datanode -> speed
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{clients: make(map[string]map[string]float64)}
}

// Update merges a heartbeat's speed table for a client. Entries replace
// previous values for the same datanode; datanodes absent from records
// keep their old values (a client only reports what it re-measured).
// The entries are copied and records is never kept: the namenode's RPC
// server parses the next heartbeat into the same map.
func (g *Registry) Update(client string, records map[string]float64) {
	if len(records) == 0 {
		return
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	table := g.clients[client]
	if table == nil {
		table = make(map[string]float64, len(records))
		g.clients[client] = table
	}
	for dn, speed := range records {
		table[dn] = speed
	}
}

// ForgetClient drops a client's records: the namenode calls it when the
// client's lease expires, silent for the lease timeout.
func (g *Registry) ForgetClient(client string) {
	g.mu.Lock()
	defer g.mu.Unlock()
	delete(g.clients, client)
}

// HasRecords reports whether the namenode has any measurements for the
// client — Algorithm 1 falls back to the default HDFS placement when it
// does not.
func (g *Registry) HasRecords(client string) bool {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return len(g.clients[client]) > 0
}

// TopN returns up to n datanodes from candidates ordered by the client's
// recorded speed, fastest first. Candidates without records sort last
// (speed 0) but are still eligible; ties break by name for determinism —
// the order is total over distinct names, so it does not depend on the
// sorting algorithm.
func (g *Registry) TopN(client string, n int, candidates []string) []string {
	return g.AppendTopN(nil, client, n, candidates)
}

// AppendTopN appends TopN's answer to dst and returns the result. A
// caller that passes room for the answer, such as a frame-local array,
// makes no allocation; one that does not gets one exact-size slice.
func (g *Registry) AppendTopN(dst []string, client string, n int, candidates []string) []string {
	if n <= 0 || len(candidates) == 0 {
		return dst
	}
	type entry struct {
		dn    string
		speed float64
	}
	var scratch [32]entry // the usual cluster's candidates fit the frame
	entries := scratch[:0]
	if len(candidates) > len(scratch) {
		entries = make([]entry, 0, len(candidates))
	}
	g.mu.RLock()
	table := g.clients[client]
	for _, dn := range candidates {
		entries = append(entries, entry{dn: dn, speed: table[dn]})
	}
	g.mu.RUnlock()
	slices.SortFunc(entries, func(a, b entry) int {
		if c := cmp.Compare(b.speed, a.speed); c != 0 {
			return c
		}
		return strings.Compare(a.dn, b.dn)
	})
	entries = entries[:min(n, len(entries))]
	if cap(dst)-len(dst) < len(entries) {
		// One exact make: growing by append would double a frame
		// array that fell short by one.
		dst = append(make([]string, 0, len(dst)+len(entries)), dst...)
	}
	for _, e := range entries {
		dst = append(dst, e.dn)
	}
	return dst
}

// Speed returns the client's recorded speed for one datanode (0 when
// never reported). A point lookup — policies consult it per candidate
// without copying the whole table.
func (g *Registry) Speed(client, dn string) float64 {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.clients[client][dn]
}

// Speeds returns a copy of the client's speed table.
func (g *Registry) Speeds(client string) map[string]float64 {
	g.mu.RLock()
	defer g.mu.RUnlock()
	out := make(map[string]float64, len(g.clients[client]))
	for dn, s := range g.clients[client] {
		out[dn] = s
	}
	return out
}

// LocalOptimize is Algorithm 2. It reorders targets in place: first it
// sorts them by the client's locally recorded speeds (descending), then
// with probability 1-SwapThreshold swaps the head with a uniformly random
// other target so that slow or unmeasured datanodes get re-measured
// occasionally. It reports whether the exploration swap happened.
//
// speedOf supplies the client's current estimate for a datanode (0 for
// never-measured). rng drives both the sort's tiebreak stability (none —
// the sort is stable) and the swap decision.
func LocalOptimize(targets []string, speedOf func(string) float64, rng *rand.Rand) bool {
	if len(targets) < 2 {
		return false
	}
	sort.SliceStable(targets, func(i, j int) bool {
		return speedOf(targets[i]) > speedOf(targets[j])
	})
	if rng.Float64() > SwapThreshold {
		idx := 1 + rng.Intn(len(targets)-1)
		targets[0], targets[idx] = targets[idx], targets[0]
		return true
	}
	return false
}
