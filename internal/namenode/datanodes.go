package namenode

import (
	"cmp"
	"slices"
	"sort"
	"strings"
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
// invalidation work. It has no lock of its own: only Namenode's exported
// methods reach it, holding nn.mu.
type datanodeManager struct {
	clk    clock.Clock
	expiry time.Duration
	topo   *topology.Topology
	nodes  map[string]*dnEntry
	// byName holds every entry in name order (entries are never removed),
	// so a sorted listing is a filter over it, not a map walk and a sort.
	byName []*dnEntry
	// placeable is the snapshot one placement decides on: the placeable
	// names as of one clock reading, in storage reused from placement to
	// placement. Namenode.place fills it for the policy's one call.
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
		slices.SortFunc(invalidate, func(a, b block.Block) int { return cmp.Compare(a.ID, b.ID) })
		clear(e.invalidate) // keeps the buckets the next deletes fill
	}
	return invalidate, true
}

// isAlive reports whether e has heartbeated within the expiry window as
// of now. Callers read the clock once and pass it to every test, so one
// answer is one point in time.
func (m *datanodeManager) isAlive(e *dnEntry, now time.Time) bool {
	return now.Sub(e.lastBeat) < m.expiry
}

// isPlaceable reports whether e may receive new replicas: alive as of
// now and not decommissioning.
func (m *datanodeManager) isPlaceable(e *dnEntry, now time.Time) bool {
	return m.isAlive(e, now) && !e.decommissioning
}

// countPlaceable counts the placeable datanodes among a block's holders.
func (m *datanodeManager) countPlaceable(holders []string, now time.Time) int {
	n := 0
	for _, name := range holders {
		if e, ok := m.nodes[name]; ok && m.isPlaceable(e, now) {
			n++
		}
	}
	return n
}

// appendPlaceable appends the datanodes eligible for new replicas as of
// now to dst, sorted.
func (m *datanodeManager) appendPlaceable(dst []string, now time.Time) []string {
	for _, e := range m.byName {
		if m.isPlaceable(e, now) {
			dst = append(dst, e.info.Name)
		}
	}
	return dst
}

// lookup resolves a datanode by name regardless of liveness.
func (m *datanodeManager) lookup(name string) (block.DatanodeInfo, bool) {
	e, ok := m.nodes[name]
	if !ok {
		return block.DatanodeInfo{}, false
	}
	return e.info, true
}

// scheduleInvalidate queues deletion of a datanode's replica of the block
// at or below the given stale generation.
func (m *datanodeManager) scheduleInvalidate(name string, id block.ID, staleGen block.GenStamp) {
	if e, ok := m.nodes[name]; ok {
		if old, exists := e.invalidate[id]; !exists || staleGen > old {
			e.invalidate[id] = staleGen
		}
	}
}

// liveGeometry counts the live datanodes and the racks they span.
func (m *datanodeManager) liveGeometry(now time.Time) (live, racks int) {
	seen := make(map[string]bool)
	for _, e := range m.byName {
		if m.isAlive(e, now) {
			live++
			seen[e.info.Rack] = true
		}
	}
	return live, len(seen)
}

// orderedHolders resolves the holders alive as of now to DatanodeInfos.
// When client is non-empty they are ordered by network distance from it
// (node-local, then rack-local, then remote, ties by the input order);
// otherwise the input (sorted-by-name) order is kept.
func (m *datanodeManager) orderedHolders(client string, holders []string, now time.Time) []block.DatanodeInfo {
	out := make([]block.DatanodeInfo, 0, len(holders))
	for _, name := range holders {
		if e, ok := m.nodes[name]; ok && m.isAlive(e, now) {
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
