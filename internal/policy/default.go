package policy

import (
	"math/rand"

	"repro/internal/block"
	"repro/internal/core"
	"repro/internal/proto"
)

// picker accumulates pipeline targets with exclusion bookkeeping. Both
// placements share it so the rack-aware tail (second replica on a remote
// rack, third on the second's rack, rest random) is implemented exactly
// once. The rng draw order is part of the conformance contract.
type picker struct {
	view   ClusterView
	rng    *rand.Rand
	picked []block.DatanodeInfo
	used   map[string]bool
	alive  map[string]bool
}

func newPicker(view ClusterView, rng *rand.Rand, exclude []string) *picker {
	p := &picker{
		view:  view,
		rng:   rng,
		used:  make(map[string]bool, len(exclude)+4),
		alive: make(map[string]bool),
	}
	for _, e := range exclude {
		p.used[e] = true
	}
	for _, n := range view.Placeable() {
		p.alive[n] = true
	}
	return p
}

func (p *picker) excludeList() []string {
	out := make([]string, 0, len(p.used))
	for n := range p.used {
		out = append(out, n)
	}
	return out
}

// add records name as the next pipeline target if it is usable.
func (p *picker) add(name string, ok bool) bool {
	if !ok || p.used[name] || !p.alive[name] {
		return false
	}
	info, known := p.view.Lookup(name)
	if !known {
		return false
	}
	p.picked = append(p.picked, info)
	p.used[name] = true
	return true
}

// randomAlive picks any live, unused node.
func (p *picker) randomAlive() bool {
	excl := p.excludeList()
	for {
		name, ok := p.view.ChooseRandom(p.rng, excl)
		if !ok {
			return false
		}
		if p.add(name, true) {
			return true
		}
		excl = append(excl, name) // dead or stale-topology node: skip it
	}
}

// remoteRackOf prefers a live node on a rack other than ref's, degrading
// to any live node when the cluster has one rack (Hadoop's fallback).
func (p *picker) remoteRackOf(ref string) bool {
	excl := p.excludeList()
	for {
		name, ok := p.view.ChooseRandomRemoteRack(p.rng, ref, excl)
		if !ok {
			return p.randomAlive()
		}
		if p.add(name, true) {
			return true
		}
		excl = append(excl, name)
	}
}

// sameRackAs prefers a live node sharing ref's rack, degrading to any.
func (p *picker) sameRackAs(ref string) bool {
	rack, _ := p.view.RackOf(ref)
	excl := p.excludeList()
	for {
		name, ok := p.view.ChooseRandomInRack(p.rng, rack, excl)
		if !ok {
			return p.randomAlive()
		}
		if p.add(name, true) {
			return true
		}
		excl = append(excl, name)
	}
}

// fillTail extends the pipeline to the requested replication after the
// first target is in place: second replica on a remote rack, third on
// the second's rack, any further replicas random (both the default HDFS
// policy in §V-B.1 and Algorithm 1 lines 11–16 share this shape).
func (p *picker) fillTail(replication int) {
	for len(p.picked) < replication {
		switch len(p.picked) {
		case 1:
			if !p.remoteRackOf(p.picked[0].Name) {
				return
			}
		case 2:
			if !p.sameRackAs(p.picked[1].Name) {
				return
			}
		default:
			if !p.randomAlive() {
				return
			}
		}
	}
}

// defaultPolicy is the paper's placement and ordering. HDFS mode: first
// replica on the client itself when the client is a datanode, otherwise
// a random node, then the standard rack-aware tail.
// SMARTH mode with speed records (Algorithm 1): first datanode drawn
// uniformly from the client's TopN fastest (n = activeDatanodes /
// replication), same tail; without records it falls back to the HDFS
// path (Algorithm 1 line 21). Pipelines chain; ordering is Algorithm 2.
type defaultPolicy struct{}

func (d *defaultPolicy) Place(view ClusterView, in PlaceInput) ([]block.DatanodeInfo, error) {
	if in.Mode == proto.ModeSmarth && view.Registry().HasRecords(in.Client) {
		return placeSmarth(view, in)
	}
	return placeDefault(view, in)
}

func (d *defaultPolicy) ExcludeBusy(mode proto.WriteMode) bool {
	return mode == proto.ModeSmarth
}

func (d *defaultPolicy) OrderPipeline(idx int, targets []string, speedOf func(string) float64, rng *rand.Rand) bool {
	return core.LocalOptimize(targets, speedOf, rng)
}

// placeDefault is HDFS's topology-aware placement.
func placeDefault(view ClusterView, in PlaceInput) ([]block.DatanodeInfo, error) {
	p := newPicker(view, in.Rng, in.Exclude)
	if !p.add(in.Client, true) && !p.randomAlive() {
		return nil, ErrNoDatanodes
	}
	p.fillTail(in.Replication)
	return p.picked, nil
}

// placeSmarth is Algorithm 1's placement for a client with speed records.
func placeSmarth(view ClusterView, in PlaceInput) ([]block.DatanodeInfo, error) {
	p := newPicker(view, in.Rng, in.Exclude)
	candidates := make([]string, 0, len(p.alive))
	for _, n := range view.Placeable() {
		if !p.used[n] {
			candidates = append(candidates, n)
		}
	}
	if len(candidates) == 0 {
		return nil, ErrNoDatanodes
	}
	n := core.MaxPipelines(len(p.alive), in.Replication)
	topN := view.Registry().TopN(in.Client, n, candidates)
	if !p.add(topN[in.Rng.Intn(len(topN))], true) {
		// TopN nodes raced to death; fall back to anything alive.
		if !p.randomAlive() {
			return nil, ErrNoDatanodes
		}
	}
	p.fillTail(in.Replication)
	return p.picked, nil
}
