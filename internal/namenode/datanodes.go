package namenode

import (
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/block"
	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/topology"
)

// DefaultExpiry is how long after the last heartbeat a datanode is
// considered dead. HDFS uses 10 minutes; the reproduction defaults to a
// few heartbeat intervals so fault tests converge quickly.
const DefaultExpiry = 5 * core.HeartbeatInterval

// dnEntry is the namenode's view of one datanode.
type dnEntry struct {
	info      block.DatanodeInfo
	lastBeat  time.Time
	usedBytes int64
	// decommissioning nodes keep serving reads and sourcing transfers
	// but receive no new pipelines.
	decommissioning bool
	// invalidate maps block ID to the highest stale generation scheduled
	// for deletion; drained by heartbeats.
	invalidate map[block.ID]block.GenStamp
}

// datanodeManager tracks registration, liveness, topology and
// invalidation work under its own lock (mu), independent of the
// namesystem's. Methods with a Locked suffix assume mu is held —
// placement runs a whole choose() under mu so the topology and the
// shared placement rng stay consistent; everything else self-locks.
// In the namenode lock order, mu may be acquired while the namesystem
// lock is held, never the reverse.
type datanodeManager struct {
	mu     sync.Mutex
	clk    clock.Clock
	expiry time.Duration
	topo   *topology.Topology
	nodes  map[string]*dnEntry
	// byName holds every entry in name order (entries are never removed),
	// so a sorted listing is a filter over it, not a map walk and a sort.
	byName []*dnEntry
	// placeable is the snapshot one placement decides on: the placeable
	// names as of one clock reading, in storage reused from placement to
	// placement. Namenode.place fills it; it is valid until mu is released.
	placeable []string
}

func newDatanodeManager(clk clock.Clock, expiry time.Duration) *datanodeManager {
	if expiry <= 0 {
		expiry = DefaultExpiry
	}
	return &datanodeManager{
		clk:    clk,
		expiry: expiry,
		topo:   topology.New(),
		nodes:  make(map[string]*dnEntry),
	}
}

func (m *datanodeManager) register(info block.DatanodeInfo) {
	m.mu.Lock()
	defer m.mu.Unlock()
	e := m.nodes[info.Name]
	if e == nil {
		e = &dnEntry{invalidate: make(map[block.ID]block.GenStamp)}
		m.nodes[info.Name] = e
		i, _ := slices.BinarySearchFunc(m.byName, info.Name, func(e *dnEntry, name string) int {
			return strings.Compare(e.info.Name, name)
		})
		m.byName = slices.Insert(m.byName, i, e)
	}
	e.info = info
	e.lastBeat = m.clk.Now()
	m.topo.Add(info.Name, info.Rack)
}

func (m *datanodeManager) heartbeat(name string, used int64) (invalidate []block.Block, known bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	e := m.nodes[name]
	if e == nil {
		return nil, false
	}
	e.lastBeat = m.clk.Now()
	e.usedBytes = used
	if len(e.invalidate) > 0 {
		invalidate = make([]block.Block, 0, len(e.invalidate))
		for id, gen := range e.invalidate {
			invalidate = append(invalidate, block.Block{ID: id, Gen: gen})
		}
		sort.Slice(invalidate, func(i, j int) bool { return invalidate[i].ID < invalidate[j].ID })
		e.invalidate = make(map[block.ID]block.GenStamp)
	}
	return invalidate, true
}

// isAliveLocked reports whether e has heartbeated within the expiry
// window as of now. Callers read the clock once and pass it to every
// test, so one listing is one point in time.
func (m *datanodeManager) isAliveLocked(e *dnEntry, now time.Time) bool {
	return now.Sub(e.lastBeat) < m.expiry
}

// aliveNames returns live datanode names sorted.
func (m *datanodeManager) aliveNames() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	now := m.clk.Now()
	out := make([]string, 0, len(m.byName))
	for _, e := range m.byName {
		if m.isAliveLocked(e, now) {
			out = append(out, e.info.Name)
		}
	}
	return out
}

// appendPlaceableLocked appends the datanodes eligible for new replicas
// (live as of now and not decommissioning) to dst, sorted. Caller holds
// mu.
func (m *datanodeManager) appendPlaceableLocked(dst []string, now time.Time) []string {
	for _, e := range m.byName {
		if m.isAliveLocked(e, now) && !e.decommissioning {
			dst = append(dst, e.info.Name)
		}
	}
	return dst
}

// placeableNames returns a copy of the placeable set, sorted.
func (m *datanodeManager) placeableNames() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.appendPlaceableLocked(make([]string, 0, len(m.byName)), m.clk.Now())
}

// setDecommissioning flips a node's drain state; unknown nodes error.
func (m *datanodeManager) setDecommissioning(name string, on bool) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	e, ok := m.nodes[name]
	if !ok {
		return false
	}
	e.decommissioning = on
	return true
}

// isDecommissioning reports the drain state.
func (m *datanodeManager) isDecommissioning(name string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	e, ok := m.nodes[name]
	return ok && e.decommissioning
}

// lookupLocked resolves a datanode by name regardless of liveness.
// Caller holds mu.
func (m *datanodeManager) lookupLocked(name string) (block.DatanodeInfo, bool) {
	e, ok := m.nodes[name]
	if !ok {
		return block.DatanodeInfo{}, false
	}
	return e.info, true
}

// lookup is the self-locking form of lookupLocked.
func (m *datanodeManager) lookup(name string) (block.DatanodeInfo, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.lookupLocked(name)
}

// scheduleInvalidate queues deletion of a datanode's replica of the block
// at or below the given stale generation.
func (m *datanodeManager) scheduleInvalidate(name string, id block.ID, staleGen block.GenStamp) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if e, ok := m.nodes[name]; ok {
		if old, exists := e.invalidate[id]; !exists || staleGen > old {
			e.invalidate[id] = staleGen
		}
	}
}

// numRacks counts racks among live nodes.
func (m *datanodeManager) numRacks() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	now := m.clk.Now()
	racks := make(map[string]bool)
	for _, e := range m.nodes {
		if m.isAliveLocked(e, now) {
			racks[e.info.Rack] = true
		}
	}
	return len(racks)
}

// orderedHolders resolves the live subset of holders to DatanodeInfos.
// When client is non-empty they are ordered by network distance from it
// (node-local, then rack-local, then remote, ties by the input order);
// otherwise the input (sorted-by-name) order is kept.
func (m *datanodeManager) orderedHolders(client string, holders []string) []block.DatanodeInfo {
	m.mu.Lock()
	defer m.mu.Unlock()
	now := m.clk.Now()
	out := make([]block.DatanodeInfo, 0, len(holders))
	for _, name := range holders {
		if e, ok := m.nodes[name]; ok && m.isAliveLocked(e, now) {
			out = append(out, e.info)
		}
	}
	if client != "" {
		sort.SliceStable(out, func(i, j int) bool {
			return m.topo.Distance(client, out[i].Name) < m.topo.Distance(client, out[j].Name)
		})
	}
	return out
}

// dnUsage is one datanode's disk utilization (balancer input).
type dnUsage struct {
	name string
	used int64
}

// usages snapshots utilization for placeable nodes.
func (m *datanodeManager) usages() []dnUsage {
	m.mu.Lock()
	defer m.mu.Unlock()
	now := m.clk.Now()
	out := make([]dnUsage, 0, len(m.byName))
	for _, e := range m.byName {
		if m.isAliveLocked(e, now) && !e.decommissioning {
			out = append(out, dnUsage{name: e.info.Name, used: e.usedBytes})
		}
	}
	return out
}
