package policy

import (
	"math/rand"
	"slices"

	"repro/internal/block"
	"repro/internal/core"
	"repro/internal/proto"
)

// picker accumulates pipeline targets with exclusion bookkeeping. Both
// placements share it so the rack-aware tail (second replica on a remote
// rack, third on the second's rack, rest random) is implemented exactly
// once. The rng draw order is part of the conformance contract.
//
// A picker lives in its placement's frame and reads the view's
// placeable set once: what is alive, how many pipelines that allows and
// who the candidates are all come from that one snapshot.
type picker struct {
	view   ClusterView
	rng    *rand.Rand
	picked []block.DatanodeInfo
	// alive is the view's placeable set, sorted: it belongs to the view
	// and is read-only here.
	alive []string
	// used is the exclude list followed by the names picked so far; it is
	// what the view's random choices are told to avoid, so it is on the
	// heap (an argument of an interface call always is).
	used []string
}

func newPicker(view ClusterView, in PlaceInput) picker {
	alive := view.Placeable()
	want := max(1, min(in.Replication, len(alive)))
	return picker{
		view:   view,
		rng:    in.Rng,
		picked: make([]block.DatanodeInfo, 0, want),
		alive:  alive,
		used:   append(make([]string, 0, len(in.Exclude)+want), in.Exclude...),
	}
}

// add records name as the next pipeline target if it is usable.
func (p *picker) add(name string) bool {
	if slices.Contains(p.used, name) {
		return false
	}
	if _, alive := slices.BinarySearch(p.alive, name); !alive {
		return false
	}
	info, known := p.view.Lookup(name)
	if !known {
		return false
	}
	p.picked = append(p.picked, info)
	p.used = append(p.used, name)
	return true
}

// randomAlive picks any live, unused node.
func (p *picker) randomAlive() bool {
	// excl grows past used only for this choice: a later one may draw a
	// skipped node again, as the rng contract has it.
	excl := p.used
	for {
		name, ok := p.view.ChooseRandom(p.rng, excl)
		if !ok {
			return false
		}
		if p.add(name) {
			return true
		}
		excl = append(excl, name) // dead or stale-topology node: skip it
	}
}

// remoteRackOf prefers a live node on a rack other than ref's, degrading
// to any live node when the cluster has one rack (Hadoop's fallback).
func (p *picker) remoteRackOf(ref string) bool {
	excl := p.used
	for {
		name, ok := p.view.ChooseRandomRemoteRack(p.rng, ref, excl)
		if !ok {
			return p.randomAlive()
		}
		if p.add(name) {
			return true
		}
		excl = append(excl, name)
	}
}

// sameRackAs prefers a live node sharing ref's rack, degrading to any.
func (p *picker) sameRackAs(ref string) bool {
	rack, _ := p.view.RackOf(ref)
	excl := p.used
	for {
		name, ok := p.view.ChooseRandomInRack(p.rng, rack, excl)
		if !ok {
			return p.randomAlive()
		}
		if p.add(name) {
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

// Place chooses up to in.Replication pipeline targets; the returned
// order is the pipeline order (the first receives the client's stream),
// and zero targets are ErrNoDatanodes. HDFS mode puts the first replica
// on the client itself when the client is a datanode, otherwise on a
// random node. SMARTH mode with speed records (Algorithm 1) draws the
// first datanode uniformly from the client's TopN fastest (n =
// activeDatanodes / replication); without records it falls back to the
// HDFS path (Algorithm 1 line 21). Both share the rack-aware tail. Place
// runs under the namenode's lock (the ClusterView contract).
func Place(view ClusterView, in PlaceInput) ([]block.DatanodeInfo, error) {
	if in.Mode == proto.ModeSmarth && view.Registry().HasRecords(in.Client) {
		return placeSmarth(view, in)
	}
	return placeDefault(view, in)
}

// placeDefault is HDFS's topology-aware placement.
func placeDefault(view ClusterView, in PlaceInput) ([]block.DatanodeInfo, error) {
	p := newPicker(view, in)
	if !p.add(in.Client) && !p.randomAlive() {
		return nil, ErrNoDatanodes
	}
	p.fillTail(in.Replication)
	return p.picked, nil
}

// placeSmarth is Algorithm 1's placement for a client with speed records.
func placeSmarth(view ClusterView, in PlaceInput) ([]block.DatanodeInfo, error) {
	p := newPicker(view, in)
	var scratch [32]string // the usual cluster's candidates fit the frame
	candidates := scratch[:0]
	if len(p.alive) > len(scratch) {
		candidates = make([]string, 0, len(p.alive))
	}
	for _, n := range p.alive {
		if !slices.Contains(p.used, n) {
			candidates = append(candidates, n)
		}
	}
	if len(candidates) == 0 {
		return nil, ErrNoDatanodes
	}
	n := core.MaxPipelines(len(p.alive), in.Replication)
	var top [32]string // the usual cluster's n fits the frame too
	topN := view.Registry().AppendTopN(top[:0], in.Client, n, candidates)
	if !p.add(topN[in.Rng.Intn(len(topN))]) {
		// The view could not resolve the drawn node; anything alive will do.
		if !p.randomAlive() {
			return nil, ErrNoDatanodes
		}
	}
	p.fillTail(in.Replication)
	return p.picked, nil
}
