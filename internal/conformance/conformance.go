// Package conformance proves that the live client and the discrete-event
// simulator are two substrates of one write protocol. Both are adapters
// around the internal/writesched scheduling engine; this package replays
// seeded scenarios — HDFS and SMARTH, clean and fault-injected — through
// each substrate and demands that the engine's ordered decision logs come
// out byte-for-byte identical.
//
// The invariant that makes this possible: every protocol decision
// (placement, Algorithm 2 swaps, pipeline launch and retirement,
// Algorithm 3/4 recovery) lives in the engine or the namenode, and both
// are deterministic given the scenario's seed, topology, and scripted
// speed samples. Timing is the only thing the substrates are allowed to
// disagree about, so a scenario's log must not depend on it: both runs
// take the same writesched.Script — retirement strictly in launch order,
// at launch decision points, and scripted FNFA samples instead of
// measured ones. Wall-clock differences between a real in-process
// cluster and virtual DES time then cannot reorder or change a single
// log line.
//
// Matching the substrates line-for-line requires mirroring the sim's
// conventions on the live cluster: the same client name and file path
// (the engine logs them), dn1–dn9 with the paper's 5+4 two-rack split
// (placement is rack-aware), the same namenode seed (placement rng) and
// engine seed (Algorithm 2 rng), and the same pipeline cap.
package conformance

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"repro/internal/client"
	"repro/internal/cluster"
	"repro/internal/ec2"
	"repro/internal/faultnet"
	"repro/internal/proto"
	"repro/internal/sim"
	"repro/internal/transport"
	"repro/internal/writesched"
)

// Scenario geometry: small blocks keep the live runs fast while still
// spanning several launch/retire cycles at the SMARTH cap.
const (
	// BlockSize and PacketSize give four packets per block.
	BlockSize  = 256 << 10
	PacketSize = 64 << 10
	// NumDatanodes matches the paper's 9-datanode evaluation clusters.
	NumDatanodes = 9
	// Path is the file every scenario writes — the sim writer names its
	// single-client upload "/<client>-file" and the engine logs the path,
	// so the live run must use the identical one.
	Path = "/" + sim.ClientName + "-file"
)

// Scenario is one seeded conformance case, replayable on either
// substrate.
type Scenario struct {
	Name string
	Mode proto.WriteMode
	// Seed drives both the namenode's placement rng and the engine's
	// Algorithm 2 rng (sim single-client runs derive both from the same
	// config seed, so the live run pins them to the same value).
	Seed   int64
	Blocks int
	// SingleRack collapses the 5+4 rack split into one rack.
	SingleRack bool
	// MaxPipelines is the engine cap. Must be 1 for HDFS (the live
	// CreateHDFS pins it) and activeDatanodes/replication = 3 for the
	// 9-node SMARTH runs.
	MaxPipelines int
	// SpeedMbps scripts the FNFA speed samples per first-datanode (via
	// writesched.Script.Speed). Unlisted datanodes default to 100.
	SpeedMbps map[string]float64
	// ThrottleDN, when ≥ 0, NIC-limits that datanode index to
	// ThrottleMbps in the simulator only. The live cluster stays
	// unshaped: scripted speeds already carry the slowness into the
	// protocol, so the logs must still match — which is exactly the
	// timing-independence this package exists to prove.
	ThrottleDN   int
	ThrottleMbps float64
	// Fault injects one mid-write pipeline failure: block Fault.Block's
	// initial pipeline dies after Fault.AfterPackets packets, before its
	// FNFA, and the engine blames hop Fault.BadIndex. The sim takes the
	// fault as it is; the live run blackholes the link into that hop
	// after as many bytes (faultnet DropAfter), and proto.Blame (table:
	// proto.TestBlame) must name the same hop on the live client.
	Fault *sim.PipelineFault
}

// Scenarios returns the seeded conformance suite: the HDFS baseline on
// one rack, SMARTH on the paper's two-rack topology, SMARTH with a
// throttled datanode, SMARTH with a mid-write failure of the first
// datanode, and HDFS with a mid-write failure of the second. The seeds
// are chosen so the link each fault blackholes carries exactly one
// pipeline (see TestConformance's recurrence check). The hop-1 fault is
// HDFS: a SMARTH first datanode stores the whole block and sends its
// FNFA before any mirror can fail it, which the sim's pre-FNFA fault
// does not model.
func Scenarios() []Scenario {
	// A spread of speeds so TopN and Algorithm 2 have real choices.
	speeds := map[string]float64{
		"dn1": 40, "dn2": 55, "dn3": 70, "dn4": 85, "dn5": 100,
		"dn6": 115, "dn7": 130, "dn8": 145, "dn9": 160,
	}
	throttled := map[string]float64{
		"dn1": 90, "dn2": 95, "dn3": 2, "dn4": 100, "dn5": 105,
		"dn6": 110, "dn7": 115, "dn8": 120, "dn9": 125,
	}
	return []Scenario{
		{
			Name: "hdfs-single-rack", Mode: proto.ModeHDFS, Seed: 11,
			Blocks: 5, SingleRack: true, MaxPipelines: 1, ThrottleDN: -1,
		},
		{
			Name: "smarth-two-rack", Mode: proto.ModeSmarth, Seed: 12,
			Blocks: 6, MaxPipelines: 3, SpeedMbps: speeds, ThrottleDN: -1,
		},
		{
			Name: "smarth-throttled", Mode: proto.ModeSmarth, Seed: 13,
			Blocks: 6, MaxPipelines: 3, SpeedMbps: throttled,
			ThrottleDN: 2, ThrottleMbps: 20,
		},
		{
			Name: "smarth-failure", Mode: proto.ModeSmarth, Seed: 14,
			Blocks: 6, MaxPipelines: 3, SpeedMbps: speeds, ThrottleDN: -1,
			// Mid-block: after 2 of the 4 packets.
			Fault: &sim.PipelineFault{Block: 2, AfterPackets: 2},
		},
		{
			Name: "hdfs-failure-hop1", Mode: proto.ModeHDFS, Seed: 14,
			Blocks: 6, MaxPipelines: 1, ThrottleDN: -1,
			Fault: &sim.PipelineFault{Block: 2, AfterPackets: 2, BadIndex: 1},
		},
	}
}

// script is the scenario as both substrates take it: the engine seed,
// the decision log, and scripted FNFA samples — each first-datanode
// always reports its table speed over one second, so the registry
// contents are a pure function of which datanodes led pipelines, not of
// timing.
func (s Scenario) script(log *writesched.DecisionLog) *writesched.Script {
	sc := &writesched.Script{Seed: s.Seed, Log: log}
	if s.SpeedMbps != nil {
		sc.Speed = func(_ int, dn string) (int64, time.Duration) {
			v, ok := s.SpeedMbps[dn]
			if !ok {
				v = 100
			}
			return int64(v * 1e6), time.Second
		}
	}
	return sc
}

// rackFor mirrors the sim's topology: datanodes 1–5 (0-based 0–4) in
// rack A, 6–9 in rack B, unless the scenario collapses to one rack.
func rackFor(single bool) func(int) string {
	return func(i int) string {
		if single || i < 5 {
			return "/rack-a"
		}
		return "/rack-b"
	}
}

// RunSim replays the scenario on the DES substrate and returns the
// engine's decision log.
func RunSim(s Scenario) (string, error) {
	var log writesched.DecisionLog
	cfg := sim.Config{
		Preset:     ec2.SmallCluster,
		FileSize:   int64(s.Blocks) * BlockSize,
		Mode:       s.Mode,
		BlockSize:  BlockSize,
		PacketSize: PacketSize,
		SingleRack: s.SingleRack,
		Seed:       s.Seed,

		MaxPipelines: s.MaxPipelines,
		Script:       s.script(&log),
	}
	if s.ThrottleDN >= 0 {
		cfg.NodeLimitMbps = map[int]float64{s.ThrottleDN: s.ThrottleMbps}
	}
	if s.Fault != nil {
		cfg.PipelineFaults = []sim.PipelineFault{*s.Fault}
	}
	if _, err := sim.Run(cfg); err != nil {
		return "", err
	}
	return log.String(), nil
}

// RunLive replays the scenario on a real in-process cluster and returns
// the engine's decision log. For fault scenarios the caller supplies the
// directed link into the hop the fault blames (from the sim log, see
// TestConformance), which is blackholed mid-block.
func RunLive(s Scenario, from, to string) (string, error) {
	var fn *faultnet.Network
	cfg := cluster.Config{
		NumDatanodes: NumDatanodes,
		RackFor:      rackFor(s.SingleRack),
		Seed:         s.Seed,
	}
	if s.Fault != nil {
		if from == "" || to == "" {
			return "", fmt.Errorf("conformance: fault scenario %s needs the link to blackhole", s.Name)
		}
		cfg.WrapNetwork = func(m *transport.MemNetwork) transport.Network {
			fn = faultnet.Wrap(m)
			return fn
		}
		// A short Progress bound detects the blackholed pipeline
		// quickly; the RPC bound stays generous so only the injected
		// fault can trip.
		cfg.ClientTimeouts = client.Timeouts{
			Progress: time.Second,
			RPC:      10 * time.Second,
		}
		if s.Fault.BadIndex > 0 {
			// Hop 0 is blamed when the client's Progress bound fires; a
			// later hop only when the datanode in front of it notices
			// the silence first and names it: the first datanode's
			// mirror bound, 300 ms plus 75 ms per datanode behind it,
			// stays under Progress.
			cfg.DatanodeDataTimeout = 300 * time.Millisecond
		}
	}
	c, err := cluster.Start(cfg)
	if err != nil {
		return "", err
	}
	defer c.Stop()
	if fn != nil {
		// Let the fault's packets through, then silently drop the rest:
		// the blamed hop never completes the block.
		fn.SetLink(from, to, faultnet.Fault{DropAfter: int64(s.Fault.AfterPackets) * PacketSize})
	}

	cl, err := c.NewClient(sim.ClientName)
	if err != nil {
		return "", err
	}
	defer cl.Close()

	var log writesched.DecisionLog
	opts := client.WriteOptions{
		BlockSize:    BlockSize,
		PacketSize:   PacketSize,
		MaxPipelines: s.MaxPipelines,
		Script:       s.script(&log),
	}
	var w client.Writer
	if s.Mode == proto.ModeSmarth {
		w, err = cl.CreateSmarth(Path, opts)
	} else {
		w, err = cl.CreateHDFS(Path, opts)
	}
	if err != nil {
		return "", err
	}
	buf := make([]byte, PacketSize)
	total := int64(s.Blocks) * BlockSize
	for off := int64(0); off < total; off += int64(len(buf)) {
		if _, err := w.Write(buf); err != nil {
			w.Close()
			return "", fmt.Errorf("conformance: write: %w", err)
		}
	}
	if err := w.Close(); err != nil {
		return "", fmt.Errorf("conformance: close: %w", err)
	}
	return log.String(), nil
}

// link is the directed link the live run blackholes for the scenario's
// fault, given the failing block's initial pipeline: the one into the
// blamed hop, from the client for hop 0 and from the hop in front of it
// otherwise. ok is false when the pipeline has no such hop.
func (s Scenario) link(pipeline []string) (from, to string, ok bool) {
	b := s.Fault.BadIndex
	if b < 0 || b >= len(pipeline) {
		return "", "", false
	}
	from = sim.ClientName
	if b > 0 {
		from = pipeline[b-1]
	}
	return from, pipeline[b], true
}

// logPipeline is one pipeline as a decision log's launch or restream
// line records it.
type logPipeline struct {
	Idx      int
	Targets  []string
	Restream bool
}

// pipelines parses a decision log's launch/restream lines in order. The
// fault scenarios use it to find the failing block's pipeline and to
// verify that the link they blackhole carries no other pipeline — the
// live blackhole must kill exactly one.
func pipelines(log string) []logPipeline {
	var out []logPipeline
	for _, line := range strings.Split(log, "\n") {
		fields := strings.Fields(line)
		if len(fields) != 3 {
			continue
		}
		restream := fields[0] == "restream"
		if fields[0] != "launch" && !restream {
			continue
		}
		idx, err := strconv.Atoi(strings.TrimPrefix(fields[1], "idx="))
		if err != nil {
			continue
		}
		targets := strings.TrimSuffix(strings.TrimPrefix(fields[2], "targets=["), "]")
		out = append(out, logPipeline{Idx: idx, Targets: strings.Split(targets, ","), Restream: restream})
	}
	return out
}
