// Package policy is the single home of the paper's write-path decisions:
// block placement under exclude sets (HDFS's topology-aware placement and
// SMARTH's Algorithm 1 TopN first node) and pipeline ordering (Algorithm 2
// local optimization). The namenode, the writesched engine, and the
// simulator all reach them through this package, so the algorithms run
// identically live and in the DES — with conformance replaying them on
// both substrates (see internal/conformance).
//
// Determinism contract (DESIGN.md §9): no wall clock, no ambient
// math/rand (only the explicitly seeded *rand.Rand handed in through
// PlaceInput/OrderPipeline), and no map-iteration order feeding a
// decision. Every choice must be a pure function of the inputs and the
// seeded rng; sim.TestDeterminism, TestPlaceMatchesReference and the
// conformance decision logs fail when one is not.
package policy

import (
	"errors"
	"fmt"
	"math/rand"

	"repro/internal/block"
	"repro/internal/core"
	"repro/internal/proto"
)

// Default names the one policy. The constant stays because
// bench/layers.go calls New(Default).
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
	// Placeable returns the datanodes eligible for new replicas (live
	// and not decommissioning), sorted by name. The slice belongs to the
	// view: a policy reads it, during this Place only. A policy calls it
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
	// Rng is the namenode's seeded placement rng. Policies must draw all
	// randomness from it (or use none) so placement stays reproducible.
	Rng *rand.Rand
}

// Policy is the write path's decision surface: where replicas go and in
// what order the pipeline visits them. It is safe for concurrent use;
// Place additionally runs under the namenode's datanode-manager lock
// (via the ClusterView contract).
type Policy interface {
	// Place chooses up to in.Replication pipeline targets. The returned
	// order is the pipeline order (first element receives the client's
	// stream). Zero targets must be reported as ErrNoDatanodes (possibly
	// wrapped).
	Place(view ClusterView, in PlaceInput) ([]block.DatanodeInfo, error)
	// ExcludeBusy reports whether the engine should exclude datanodes
	// serving unretired pipelines from addBlock/recovery requests (the
	// SMARTH one-pipeline-per-datanode rule).
	ExcludeBusy(mode proto.WriteMode) bool
	// OrderPipeline may reorder targets in place after placement (the
	// Algorithm 2 slot). idx is the block index, speedOf the client's
	// local speed estimate, rng the engine's seeded rng. It reports
	// whether an exploration swap happened (decision-logged).
	OrderPipeline(idx int, targets []string, speedOf func(string) float64, rng *rand.Rand) bool
}

// New returns the policy. It takes a name, and accepts only "" and
// Default, because bench/layers.go calls New(Default).
func New(name string) (Policy, error) {
	if name != "" && name != Default {
		return nil, fmt.Errorf("policy: unknown policy %q", name)
	}
	return &defaultPolicy{}, nil
}
