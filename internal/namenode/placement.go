package namenode

import (
	"math/rand"

	"repro/internal/block"
	"repro/internal/core"
	"repro/internal/policy"
)

// ErrNoDatanodes is returned when placement cannot find a single target.
// It aliases the policy layer's sentinel so errors.Is matches across
// both, regardless of which layer reported the failure.
var ErrNoDatanodes = policy.ErrNoDatanodes

// placementView adapts the datanode manager (plus the speed registry) to
// policy.ClusterView. The one-lock rule holds here too: a Place() runs
// inside an exported Namenode method, which holds nn.mu, so the view
// reads the datanode manager directly and takes no lock; what it returns
// is only valid for the duration of that one call.
type placementView struct {
	dm       *datanodeManager
	registry *core.Registry
}

// Placeable returns the datanodes eligible for new replicas, sorted: the
// snapshot Namenode.place took for this placement, however often the
// policy asks.
func (v placementView) Placeable() []string { return v.dm.placeable }

// Lookup resolves a datanode by name regardless of liveness.
func (v placementView) Lookup(name string) (block.DatanodeInfo, bool) {
	return v.dm.lookup(name)
}

// ChooseRandom picks a uniformly random known datanode not in exclude.
func (v placementView) ChooseRandom(rng *rand.Rand, exclude []string) (string, bool) {
	return v.dm.topo.ChooseRandom(rng, exclude)
}

// ChooseRandomInRack picks a random datanode in the given rack.
func (v placementView) ChooseRandomInRack(rng *rand.Rand, rack string, exclude []string) (string, bool) {
	return v.dm.topo.ChooseRandomInRack(rng, rack, exclude)
}

// ChooseRandomRemoteRack picks a random datanode on a rack other than
// ref's.
func (v placementView) ChooseRandomRemoteRack(rng *rand.Rand, ref string, exclude []string) (string, bool) {
	return v.dm.topo.ChooseRandomRemoteRack(rng, ref, exclude)
}

// RackOf resolves a datanode's rack.
func (v placementView) RackOf(name string) (string, bool) { return v.dm.topo.RackOf(name) }

// Registry exposes the per-client speed records backing Algorithm 1.
func (v placementView) Registry() *core.Registry { return v.registry }
