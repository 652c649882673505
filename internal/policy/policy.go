// Package policy is the single home of the paper's block placement under
// exclude sets: HDFS's topology-aware placement and SMARTH's Algorithm 1
// TopN first node. The namenode calls Place for every pipeline, on both
// substrates, so placement runs identically live and in the DES — with
// conformance replaying it on both (see internal/conformance). Pipeline
// ordering (Algorithm 2) is core.LocalOptimize, which the writesched
// engine calls itself.
//
// Determinism contract (DESIGN.md §9): no wall clock, no ambient
// math/rand (only the explicitly seeded *rand.Rand handed in through
// PlaceInput), and no map-iteration order feeding a decision. Every
// choice must be a pure function of the inputs and the seeded rng;
// sim.TestDeterminism, TestPlaceMatchesReference and the conformance
// decision logs fail when one is not.
package policy

import (
	"errors"
	"fmt"
	"math/rand"

	"repro/internal/block"
	"repro/internal/core"
	"repro/internal/proto"
)

// Default names the one policy. It and New stay only because
// bench/layers.go's placement probe calls New(Default).Place; everything
// else calls the package function Place.
const Default = "default"

// ErrNoDatanodes is returned when placement cannot find a single target.
// The namenode re-exports it (namenode.ErrNoDatanodes) and the write
// substrates match on it to decide whether an addBlock failure is
// retryable after a pipeline retirement.
var ErrNoDatanodes = errors.New("policy: no available datanodes")

// Shape is a pipeline's data-plane topology. The mirror chain is the only
// one; the type stays because bench/layers.go names it in its
// implementation of writesched.Substrate.StartPipeline.
type Shape uint8

// ShapeChain is the HDFS/SMARTH mirror chain: the client streams to
// targets[0], which mirrors to targets[1], and so on.
const ShapeChain Shape = 0

// ClusterView is the namenode state a placement decision may read. It is
// implemented by the namenode's datanode manager (and by the placement
// probe in bench/layers.go) and is valid only for the duration of one Place call
// (the namenode holds the manager's lock across it, so the view is
// consistent and the shared rng race-free).
type ClusterView interface {
	// Placeable returns the datanodes eligible for new replicas (the
	// live ones), sorted by name. The slice belongs to the view: a
	// policy reads it, during this Place only. A policy calls it
	// once per decision, so everything it derives (who is alive, how many
	// pipelines that allows, the candidates) agrees.
	Placeable() []string
	// Lookup resolves a datanode by name regardless of liveness.
	Lookup(name string) (block.DatanodeInfo, bool)
	// ChooseRandom picks a uniformly random known datanode not in
	// exclude (false when none remain).
	ChooseRandom(rng *rand.Rand, exclude []string) (string, bool)
	// ChooseRandomInRack picks a random datanode in the given rack.
	ChooseRandomInRack(rng *rand.Rand, rack string, exclude []string) (string, bool)
	// ChooseRandomRemoteRack picks a random datanode on any rack other
	// than ref's.
	ChooseRandomRemoteRack(rng *rand.Rand, ref string, exclude []string) (string, bool)
	// RackOf resolves a datanode's rack.
	RackOf(name string) (string, bool)
	// Registry exposes the namenode's per-client speed records
	// (Algorithm 1 state).
	Registry() *core.Registry
}

// PlaceInput carries one placement decision's parameters (bench/layers.go
// builds one for its placement probe).
type PlaceInput struct {
	// Client is the writing client's name ("" for maintenance placement
	// such as re-replication, which has no client affinity).
	Client string
	// Mode is the write protocol the placement serves.
	Mode proto.WriteMode
	// Replication is the number of targets wanted; fewer is acceptable
	// on a small cluster, zero is an error.
	Replication int
	// Exclude lists datanodes that must not be chosen.
	Exclude []string
	// Rng is the namenode's seeded placement rng. Place draws all its
	// randomness from it, so placement stays reproducible.
	Rng *rand.Rand
}

// New returns the handle bench/layers.go's placement probe calls Place
// on; it accepts only "" and Default.
func New(name string) (placer, error) {
	if name != "" && name != Default {
		return placer{}, fmt.Errorf("policy: unknown policy %q", name)
	}
	return placer{}, nil
}

// placer is New's handle: its Place is the package function.
type placer struct{}

func (placer) Place(view ClusterView, in PlaceInput) ([]block.DatanodeInfo, error) {
	return Place(view, in)
}
