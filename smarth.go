// Package smarth is a from-scratch Go reproduction of "SMARTH: Enabling
// Multi-pipeline Data Transfer in HDFS" (Zhang, Wang, Huang — ICPP 2014).
//
// It contains a complete HDFS-like distributed file system — namenode,
// datanodes, checksummed replication pipelines, heartbeats, pipeline
// recovery — plus the paper's contribution: the SMARTH asynchronous
// multi-pipeline write protocol with FNFA acknowledgements, the global
// optimization (Algorithm 1: speed-record-driven placement), the local
// optimization (Algorithm 2: client-side pipeline reordering with
// exploration swaps) and the multi-pipeline fault tolerance
// (Algorithm 4).
//
// Two substrates execute the protocols:
//
//   - a real concurrent implementation over in-memory or TCP transports
//     (StartCluster / Client), used by the examples, the integration
//     tests, and anything that wants actual bytes moved and verified;
//     every wait in it is bounded (Timeouts), with no way to turn a
//     bound off;
//   - a discrete-event simulator (Simulate) that runs the same decision
//     algorithms against a packet-level network model at paper scale
//     (8 GB files, Mbps NICs) in virtual time, used to regenerate every
//     figure of the paper's evaluation (Experiments).
//
// The exported surface is a façade of type aliases over the internal
// packages, so downstream code can use clean names like smarth.Cluster
// while the implementation keeps its layered structure.
package smarth

import (
	"repro/internal/client"
	"repro/internal/cluster"
	"repro/internal/ec2"
	"repro/internal/proto"
	"repro/internal/sim"
)

// --- real cluster substrate ---

// ClusterConfig configures an in-process cluster (see cluster.Config).
type ClusterConfig = cluster.Config

// Cluster is a running in-process cluster of one namenode and N
// datanodes.
type Cluster = cluster.Cluster

// Shaper applies tc-style bandwidth limits to cluster links.
type Shaper = cluster.Shaper

// Client is a DFS client bound to one cluster.
type Client = client.Client

// ClientOptions configure a client.
type ClientOptions = client.Options

// WriteOptions configure one file write (replication, block and packet
// sizes); the protocol is chosen by calling CreateHDFS or CreateSmarth.
type WriteOptions = client.WriteOptions

// Timeouts bound the blocking points of the write and read paths with
// two fields: Progress (every step on a data connection, acks included)
// and RPC (each namenode call attempt); a zero field takes its
// DefaultTimeouts value, so no wait is unbounded. Set per client, via
// ClientOptions.Timeouts.
type Timeouts = client.Timeouts

// DefaultTimeouts returns the production timeout defaults.
func DefaultTimeouts() Timeouts { return client.DefaultTimeouts() }

// WriteMode names a write protocol (SimConfig.Mode; a live write picks
// its protocol with CreateHDFS or CreateSmarth).
type WriteMode = proto.WriteMode

// The two write protocols.
const (
	ModeHDFS   = proto.ModeHDFS
	ModeSmarth = proto.ModeSmarth
)

// StartCluster boots a namenode plus datanodes in-process.
func StartCluster(cfg ClusterConfig) (*Cluster, error) { return cluster.Start(cfg) }

// NewShaper builds a bandwidth shaper for ClusterConfig.Shaper.
func NewShaper() *Shaper { return cluster.NewShaper(nil) }

// --- instance catalog (Table I) ---

// InstanceType is a row of the paper's Table I.
type InstanceType = ec2.InstanceType

// ClusterPreset is one of the paper's four evaluation clusters.
type ClusterPreset = ec2.ClusterPreset

// The instance types and cluster presets of the evaluation.
var (
	Small  = ec2.Small
	Medium = ec2.Medium
	Large  = ec2.Large

	SmallCluster  = ec2.SmallCluster
	MediumCluster = ec2.MediumCluster
	LargeCluster  = ec2.LargeCluster
	HeteroCluster = ec2.HeteroCluster
)

// --- simulation substrate ---

// SimConfig configures one simulated upload experiment.
type SimConfig = sim.Config

// SimResult summarizes a simulated upload.
type SimResult = sim.Result

// Experiment reproduces one table or figure of the paper.
type Experiment = sim.Experiment

// Point is one x-axis position of a figure (HDFS vs SMARTH).
type Point = sim.Point

// SimMultiResult summarizes a concurrent multi-client simulation.
type SimMultiResult = sim.MultiResult

// Simulate runs one upload in virtual time. Namenode RPC failures
// surface as errors.
func Simulate(cfg SimConfig) (SimResult, error) { return sim.Run(cfg) }

// SimulateMulti runs several concurrent uploads (one per client) in
// virtual time — the multi-writer extension.
func SimulateMulti(cfg SimConfig, clients int) (SimMultiResult, error) {
	return sim.RunMulti(cfg, clients)
}

// Experiments lists every figure of the paper's evaluation.
func Experiments() []Experiment { return sim.Experiments() }

// ExperimentByID finds one experiment (e.g. "figure13").
func ExperimentByID(id string) (Experiment, bool) { return sim.ExperimentByID(id) }

// FormatPoints renders a figure's results as a text table.
func FormatPoints(e Experiment, pts []Point) string { return sim.FormatPoints(e, pts) }

// Table1 renders the paper's instance-type table.
func Table1() string { return sim.Table1() }
