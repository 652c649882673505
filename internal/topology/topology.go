// Package topology models Hadoop's rack-aware network topology: a
// two-level tree of racks and nodes. The namenode uses it to place
// replicas ("second replica on a remote rack, third on the same rack as
// the second") and to compute network distance between nodes.
package topology

import (
	"math/rand"
	"slices"
	"strings"
	"sync"
)

// DefaultRack is the rack assigned to nodes registered without one,
// mirroring Hadoop's /default-rack.
const DefaultRack = "/default-rack"

// Node is a member of the topology: a network location (rack) plus a name.
type Node struct {
	// Name identifies the node (host:port in a real cluster).
	Name string
	// Rack is the node's network location, e.g. "/rack-1".
	Rack string
}

func (n Node) String() string { return n.Rack + "/" + n.Name }

// Topology is a concurrency-safe rack/node tree.
//
// The random choices draw from name-sorted lists, so a seeded rng picks
// the same node whatever order the nodes were added in. The lists are
// kept sorted as nodes come and go; a choice reads them and builds
// nothing.
type Topology struct {
	mu    sync.RWMutex
	racks map[string][]Node // rack -> its nodes, sorted by name
	nodes map[string]string // node name -> rack
	all   []Node            // every node, sorted by name
}

// New returns an empty topology.
func New() *Topology {
	return &Topology{
		racks: make(map[string][]Node),
		nodes: make(map[string]string),
	}
}

// find returns where name is, or would be inserted, in a name-sorted list.
func find(list []Node, name string) int {
	i, _ := slices.BinarySearchFunc(list, name, func(n Node, name string) int {
		return strings.Compare(n.Name, name)
	})
	return i
}

// insert adds n to a name-sorted list that does not hold it.
func insert(list []Node, n Node) []Node {
	return slices.Insert(list, find(list, n.Name), n)
}

// remove deletes name from a name-sorted list that holds it.
func remove(list []Node, name string) []Node {
	i := find(list, name)
	return slices.Delete(list, i, i+1)
}

// Add registers a node under a rack. An empty rack means DefaultRack.
// Re-adding an existing node moves it to the new rack.
func (t *Topology) Add(name, rack string) {
	if rack == "" {
		rack = DefaultRack
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if old, ok := t.nodes[name]; ok {
		t.all = remove(t.all, name)
		t.racks[old] = remove(t.racks[old], name)
	}
	n := Node{Name: name, Rack: rack}
	t.nodes[name] = rack
	t.racks[rack] = insert(t.racks[rack], n)
	t.all = insert(t.all, n)
}

// RackOf returns the rack of a node and whether the node is known.
func (t *Topology) RackOf(name string) (string, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	r, ok := t.nodes[name]
	return r, ok
}

// Distance returns the Hadoop-style network distance between two nodes:
// 0 for the same node, 2 for the same rack, 4 for different racks.
// Unknown nodes are treated as off-cluster (distance 6).
func (t *Topology) Distance(a, b string) int {
	if a == b {
		return 0
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	ra, oka := t.nodes[a]
	rb, okb := t.nodes[b]
	switch {
	case !oka || !okb:
		return 6
	case ra == rb:
		return 2
	default:
		return 4
	}
}

// Nodes returns all node names, sorted.
func (t *Topology) Nodes() []string {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return names(t.all)
}

func names(list []Node) []string {
	out := make([]string, len(list))
	for i, n := range list {
		out[i] = n.Name
	}
	return out
}

// ChooseRandom returns a uniformly random registered node not in excluded,
// using rng. It returns false if every node is excluded.
func (t *Topology) ChooseRandom(rng *rand.Rand, excluded []string) (string, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return choose(rng, t.all, "", excluded)
}

// ChooseRandomInRack returns a random node within rack, not in excluded.
func (t *Topology) ChooseRandomInRack(rng *rand.Rand, rack string, excluded []string) (string, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return choose(rng, t.racks[rack], "", excluded)
}

// ChooseRandomRemoteRack returns a random node whose rack differs from the
// rack of refNode, not in excluded. If refNode is unknown, any node
// qualifies. It returns false when no such node exists.
func (t *Topology) ChooseRandomRemoteRack(rng *rand.Rand, refNode string, excluded []string) (string, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return choose(rng, t.all, t.nodes[refNode], excluded) // no rack is named ""
}

// choose draws uniformly among the candidates of pool: its nodes that
// are not on avoidRack and not in excluded. It counts them, draws an
// index — the one rng.Intn per choice, and none when there is no
// candidate, that seeded replays depend on — and walks to it in pool's
// order. excluded is a short list (a pipeline's targets, a writer's busy
// datanodes) that may hold duplicates and unknown names, so scanning it
// per node is cheaper than indexing it.
func choose(rng *rand.Rand, pool []Node, avoidRack string, excluded []string) (string, bool) {
	candidate := func(n *Node) bool {
		return n.Rack != avoidRack && !slices.Contains(excluded, n.Name)
	}
	count := 0
	for i := range pool {
		if candidate(&pool[i]) {
			count++
		}
	}
	if count == 0 {
		return "", false
	}
	k := rng.Intn(count)
	for i := range pool {
		if candidate(&pool[i]) {
			if k == 0 {
				return pool[i].Name, true
			}
			k--
		}
	}
	panic("topology: candidate count changed under the read lock")
}
