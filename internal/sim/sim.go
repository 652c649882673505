// Package sim runs paper-scale write experiments in virtual time: the
// same placement algorithms as the real stack (it drives the actual
// namenode code), with the data plane modelled at packet granularity on
// the netsim rate servers. An 8 GB upload into a 9-node cluster —
// minutes of wall-clock on EC2 — simulates in well under a second, which
// is what makes reproducing every figure of the paper's evaluation
// tractable.
//
// The protocol control plane (block chaining, pipeline-launch caps,
// FNFA reactions, recovery) is not implemented here: each simulated
// writer is a writesched.Substrate adapter over the shared scheduling
// engine, the same engine the live client drives. This file only models
// the transport: namenode RPC latency, packet production, per-hop
// delivery, and disk service times.
package sim

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"time"

	"repro/internal/block"
	"repro/internal/core"
	"repro/internal/des"
	"repro/internal/ec2"
	"repro/internal/namenode"
	"repro/internal/netsim"
	"repro/internal/nnapi"
	"repro/internal/obs"
	"repro/internal/policy"
	"repro/internal/proto"
	"repro/internal/writesched"
)

// ClientName is the simulated client's identity.
const ClientName = "client"

// filePath is the file the client writes.
const filePath = "/" + ClientName + "-file"

// PipelineFault injects a mid-write pipeline failure: block Block's
// initial pipeline dies after AfterPackets packets have left the
// client, and the failure report blames pipeline position BadIndex,
// the hop proto.Blame names on the live client (0: the first datanode).
type PipelineFault struct {
	Block        int
	AfterPackets int
	BadIndex     int
}

// Config describes one simulated upload experiment.
type Config struct {
	// Preset supplies the instance types (Table I presets).
	Preset ec2.ClusterPreset
	// FileSize in bytes (the paper sweeps 1–8 GB).
	FileSize int64
	// Mode selects HDFS or SMARTH.
	Mode proto.WriteMode

	// BlockSize defaults to 64 MB, PacketSize to 64 KB, Replication to 3.
	BlockSize   int64
	PacketSize  int64
	Replication int

	// The paper's §V-B.1 topology places datanodes 1–5 (and the client)
	// in rack A and 6–9 in rack B; set SingleRack to collapse everything
	// into one rack.
	SingleRack bool
	// CrossRackMbps throttles every node's traffic to the other rack
	// (the tc experiment); 0 = no throttle.
	CrossRackMbps float64
	// NodeLimitMbps throttles individual datanodes' NICs by index
	// (0-based), the §V-B.2 bandwidth-contention scenario.
	NodeLimitMbps map[int]float64

	// Model parameters (defaults in parentheses): client packet
	// production rate (400 MB/s ⇒ T_c ≈ 0.16 ms/packet), datanode disk
	// rate (300 MB/s ⇒ T_w ≈ 0.21 ms/packet), namenode RPC latency
	// (1.5 ms = T_n), per-hop network latency (0.3 ms).
	ProductionMBps float64
	DiskMBps       float64
	NNLatency      time.Duration
	HopLatency     time.Duration

	// Seed fixes placement and local-optimization randomness.
	Seed int64

	// Ablation knobs.
	DisableLocalOpt  bool // turn off Algorithm 2
	MaxPipelines     int  // override the activeDatanodes/replication cap
	DisableGlobalOpt bool // suppress speed reports: Algorithm 1 never engages

	// Trace records obs spans into Result.Trace (render them with
	// obs.RenderTimeline).
	Trace bool

	// Script, when set, makes the run a conformance replay (see
	// writesched.Script): scripted seed and FNFA samples, strict
	// launch-order retirement, a decision log, and speed reports at every
	// FNFA — the live client's cadence — instead of on the timer.
	Script *writesched.Script

	// PipelineFaults injects pipeline failures (each fires once, on the
	// block's initial pipeline only, so recovery can succeed).
	PipelineFaults []PipelineFault
}

func (c *Config) applyDefaults() {
	if c.BlockSize <= 0 {
		c.BlockSize = proto.DefaultBlockSize
	}
	if c.PacketSize <= 0 {
		c.PacketSize = proto.DefaultPacketSize
	}
	if c.Replication <= 0 {
		c.Replication = 3
	}
	if c.ProductionMBps <= 0 {
		c.ProductionMBps = 400
	}
	if c.DiskMBps <= 0 {
		c.DiskMBps = 300
	}
	if c.NNLatency <= 0 {
		c.NNLatency = 1500 * time.Microsecond
	}
	if c.HopLatency <= 0 {
		c.HopLatency = 300 * time.Microsecond
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
}

// Result summarizes one simulated upload.
type Result struct {
	// Duration is the virtual time from the first create() to the file
	// completing.
	Duration time.Duration
	// Bytes uploaded and the number of blocks used.
	Bytes  int64
	Blocks int
	// PeakPipelines is the maximum number of concurrently active
	// pipelines observed (1 for HDFS by construction).
	PeakPipelines int
	// Recoveries counts the Algorithm 3 recovery episodes the write went
	// through (one per failed pipeline, however many re-provision
	// attempts each took).
	Recoveries int
	// FirstDatanodeUse counts how often each datanode served as a
	// pipeline's first node (placement diagnostics).
	FirstDatanodeUse map[string]int
	// Trace holds the obs spans recorded when Config.Trace is set — the
	// same JSONL-exportable format the live client emits, so
	// `smarth-admin -trace` renders simulated timelines too.
	Trace []obs.SpanRecord
	// Pipelines is always nil: the per-block view it used to hold is read
	// off Trace's block spans. The field remains only so a Result still
	// encodes a "Pipelines" key — bench/testdata/figure13.golden.json,
	// frozen with bench/, is compared byte for byte — and goes when
	// bench/ is next re-recorded (ROADMAP item 1b).
	Pipelines []struct{}
	// EgressBytes and IngressBytes count payload bytes through each
	// node's NIC transmit/receive servers.
	EgressBytes  map[string]int64
	IngressBytes map[string]int64
}

// ThroughputMBps is the end-to-end upload rate.
func (r Result) ThroughputMBps() float64 {
	s := r.Duration.Seconds()
	if s <= 0 {
		return 0
	}
	return float64(r.Bytes) / 1e6 / s
}

func (r Result) String() string {
	return fmt.Sprintf("%.1fs (%.1f MB/s, %d blocks, peak %d pipelines)",
		r.Duration.Seconds(), r.ThroughputMBps(), r.Blocks, r.PeakPipelines)
}

// engClock adapts the DES engine to the clock.Clock interface the
// namenode expects. Sleep is a no-op: the namenode never sleeps, and the
// simulation drives all timing through scheduled events.
type engClock struct{ eng *des.Engine }

func (c engClock) Now() time.Time        { return time.Unix(0, 0).Add(c.eng.Now()) }
func (c engClock) Sleep(_ time.Duration) {}
func (c engClock) After(d time.Duration) <-chan time.Time {
	ch := make(chan time.Time, 1)
	ch <- c.Now().Add(d)
	return ch
}

// mbps converts the paper's megabit figures to bytes/second.
func mbps(v float64) float64 { return v * 1e6 / 8 }

// scratch is the scaffolding a run leaves for the next one on the same
// goroutine (a RunAll worker): the engine's event queue and the network's
// servers and their job rings, which hold the packets in flight. All of it
// is sized by a run's high-water marks — how deep a backlog got — and none
// of it by what the run computed, so a run on a used scratch returns what
// it returns on a new one (TestScratchHygiene). It is handed down by
// parameter; nothing here is shared between goroutines.
type scratch struct {
	eng *des.Engine
	nw  *netsim.Network
}

func newScratch() *scratch {
	eng := des.New()
	return &scratch{eng: eng, nw: netsim.NewNetwork(eng)}
}

// reset makes the scratch as good as new for the next run. A run that
// ended in Stop, an abort or an error leaves events queued and packets in
// flight; all are dropped here, before the next run rather than after the
// last, so no exit path has to remember to.
func (sc *scratch) reset() {
	sc.eng.Reset()
	sc.nw.Reset()
}

// simulation holds one experiment's shared infrastructure.
type simulation struct {
	cfg Config
	*scratch
	nn *namenode.Namenode

	dnNodes []*netsim.Node
	w       *writer
}

// writer is one simulated uploading client: a writesched.Substrate whose
// effects are DES events. The scheduling engine decides what happens;
// the writer decides how long it takes.
type writer struct {
	s *simulation

	node       *netsim.Node
	production *netsim.Server // client CPU producing packets (T_c)
	recorder   *core.Recorder
	eng        *writesched.Engine

	numBlocks int
	nextOffer int // next block index to hand the engine

	activePipes int
	peakPipes   int
	recoveries  int
	firstUse    map[string]int
	startAt     map[int]time.Duration
	endTime     time.Duration
	done        bool
	err         error

	tracer     *obs.Tracer
	root       *obs.Span
	blockSpans map[int]*obs.Span
}

// rackFor assigns the paper's 5+4 two-rack split; the client shares
// rack A.
func (s *simulation) rackFor(i int) string {
	if s.cfg.SingleRack || i < 5 {
		return "/rack-a"
	}
	return "/rack-b"
}

func newSimulation(cfg Config, sc *scratch) (*simulation, error) {
	cfg.applyDefaults()
	sc.reset()
	s := &simulation{cfg: cfg, scratch: sc}

	// Namenode runs the real placement code against the virtual clock;
	// liveness expiry is effectively disabled (no datanode heartbeats in
	// the performance model).
	s.nn = namenode.New(namenode.Options{
		Clock:  engClock{s.eng},
		Expiry: time.Duration(math.MaxInt64 / 4),
		Seed:   cfg.Seed,
	})

	// Datanodes.
	diskBps := cfg.DiskMBps * 1e6
	for i, inst := range cfg.Preset.Datanodes {
		name := fmt.Sprintf("dn%d", i+1)
		node := s.nw.NewNode(name, s.rackFor(i), inst.NetworkBps(), diskBps)
		if limit, ok := cfg.NodeLimitMbps[i]; ok && limit > 0 {
			node.SetNICLimit(mbps(limit))
		}
		if cfg.CrossRackMbps > 0 && !cfg.SingleRack {
			node.SetCrossRackLimit(mbps(cfg.CrossRackMbps))
		}
		s.dnNodes = append(s.dnNodes, node)
		if _, err := s.nn.Register(nnapi.RegisterReq{Name: name, Addr: name, Rack: node.Rack}); err != nil {
			return nil, fmt.Errorf("sim: register %s: %w", name, err)
		}
	}

	// The client, in rack A like the paper's uploader.
	maxPipes := cfg.MaxPipelines
	if maxPipes <= 0 {
		maxPipes = core.MaxPipelines(len(cfg.Preset.Datanodes), cfg.Replication)
	}
	numBlocks := int((cfg.FileSize + cfg.BlockSize - 1) / cfg.BlockSize)
	if numBlocks == 0 {
		numBlocks = 1
	}
	node := s.nw.NewNode(ClientName, "/rack-a", cfg.Preset.Client.NetworkBps(), 0)
	if cfg.CrossRackMbps > 0 && !cfg.SingleRack {
		node.SetCrossRackLimit(mbps(cfg.CrossRackMbps))
	}
	w := &writer{
		s:          s,
		node:       node,
		production: s.nw.NewServer(ClientName+"/cpu", cfg.ProductionMBps*1e6),
		recorder:   core.NewRecorder(),
		firstUse:   make(map[string]int),
		startAt:    make(map[int]time.Duration),
		blockSpans: make(map[int]*obs.Span),
		numBlocks:  numBlocks,
	}
	w.eng = writesched.New(writesched.Config{
		Path:            filePath,
		Mode:            cfg.Mode,
		Replication:     cfg.Replication,
		MaxPipelines:    maxPipes,
		DisableLocalOpt: cfg.DisableLocalOpt,
		Seed:            cfg.Seed,
		Recorder:        w.recorder,
		Script:          cfg.Script,
	}, w)
	s.w = w
	return s, nil
}

// blockBytes returns the size of block i.
func (w *writer) blockBytes(i int) int64 {
	cfg := &w.s.cfg
	full := cfg.FileSize / cfg.BlockSize
	if int64(i) < full {
		return cfg.BlockSize
	}
	return cfg.FileSize % cfg.BlockSize
}

// Run simulates one upload and returns the result. Namenode RPC
// failures and injected faults that exhaust recovery surface as errors,
// not panics.
func Run(cfg Config) (Result, error) { return newScratch().run(cfg) }

func (sc *scratch) run(cfg Config) (Result, error) {
	s, err := newSimulation(cfg, sc)
	if err != nil {
		return Result{}, err
	}
	w := s.w
	if err := w.start(); err != nil {
		return Result{}, err
	}
	s.eng.Run()

	if w.err != nil {
		return Result{}, fmt.Errorf("sim: %w", w.err)
	}
	if !w.done {
		return Result{}, errors.New("sim: the write stalled (event graph drained before completion)")
	}

	egress := make(map[string]int64)
	ingress := make(map[string]int64)
	for _, node := range s.dnNodes {
		egress[node.Name] = node.Egress.Bytes
		ingress[node.Name] = node.Ingress.Bytes
	}
	egress[ClientName] = w.node.Egress.Bytes
	ingress[ClientName] = w.node.Ingress.Bytes
	return Result{
		Duration:         w.endTime,
		Bytes:            s.cfg.FileSize,
		Blocks:           w.numBlocks,
		PeakPipelines:    w.peakPipes,
		Recoveries:       w.recoveries,
		FirstDatanodeUse: w.firstUse,
		Trace:            w.tracer.Snapshot(),
		EgressBytes:      egress,
		IngressBytes:     ingress,
	}, nil
}

// start creates the writer's file and hands the first block to the
// scheduling engine.
func (w *writer) start() error {
	s := w.s
	if _, err := s.nn.Create(nnapi.CreateReq{
		Path: filePath, Client: ClientName,
		Replication: s.cfg.Replication, BlockSize: s.cfg.BlockSize,
	}); err != nil {
		return fmt.Errorf("sim: create %s: %w", filePath, err)
	}

	if s.cfg.Trace {
		w.tracer = obs.NewTracer(engClock{s.eng})
		w.root = w.tracer.StartSpan("write", nil)
		w.root.SetAttr("path", filePath)
		w.root.SetAttr("mode", s.cfg.Mode.String())
		w.root.SetAttr("client", ClientName)
	}

	// Timer heartbeats carry the client's speed table to the namenode
	// (the engine sends them at FNFA instead in a scripted run).
	if !s.cfg.DisableGlobalOpt && s.cfg.Script == nil {
		var tick func()
		tick = func() {
			if w.done {
				return
			}
			if w.recorder.Len() > 0 {
				_, _ = s.nn.ClientHeartbeat(nnapi.ClientHeartbeatReq{
					Client: ClientName,
					Speeds: w.recorder.Snapshot(),
				})
			}
			s.eng.Schedule(core.HeartbeatInterval, tick)
		}
		s.eng.Schedule(core.HeartbeatInterval, tick)
	}

	w.offerNext()
	return nil
}

// offerNext hands the engine the next block, or closes the file when
// every block has been offered.
func (w *writer) offerNext() {
	if w.nextOffer < w.numBlocks {
		i := w.nextOffer
		w.nextOffer++
		w.eng.Offer(w.blockBytes(i))
		return
	}
	w.eng.CloseFile()
}

// --- writesched.Substrate (every effect is a DES event) ---

// AddBlock performs the namenode RPC after T_n.
func (w *writer) AddBlock(idx int, exclude []string, prev block.Block) {
	s := w.s
	s.eng.Schedule(s.cfg.NNLatency, func() {
		resp, err := s.nn.AddBlock(nnapi.AddBlockReq{
			Path: filePath, Client: ClientName, Mode: s.cfg.Mode,
			Exclude: exclude, Previous: prev,
		})
		if err != nil && errors.Is(err, namenode.ErrNoDatanodes) {
			err = fmt.Errorf("%w: %v", writesched.ErrNoTargets, err)
		}
		w.eng.HandleAddBlock(idx, resp.Located, err)
	})
}

// RecoverBlock performs the recovery RPC after T_n.
func (w *writer) RecoverBlock(idx, attempt int, blk block.Block, alive, exclude []string) {
	s := w.s
	if attempt == 1 {
		w.recoveries++
	}
	s.eng.Schedule(s.cfg.NNLatency, func() {
		resp, err := s.nn.RecoverBlock(nnapi.RecoverBlockReq{
			Path: filePath, Client: ClientName, Block: blk,
			Alive: alive, Exclude: exclude, Mode: s.cfg.Mode,
		})
		w.eng.HandleRecovered(idx, resp.Located, err)
	})
}

// Complete charges the final complete() RPC's latency. The simulated
// datanodes never report blockReceived, so the real namenode Complete
// would spin; the performance model only needs T_n.
func (w *writer) Complete() {
	s := w.s
	s.eng.Schedule(s.cfg.NNLatency, func() { w.eng.HandleCompleteDone(nil) })
}

// Heartbeat ships the speed table inline in a scripted run; an
// unscripted one leaves it to the timer start set up.
func (w *writer) Heartbeat() {
	if w.s.cfg.Script == nil || w.s.cfg.DisableGlobalOpt || w.recorder.Len() == 0 {
		return
	}
	_, _ = w.s.nn.ClientHeartbeat(nnapi.ClientHeartbeatReq{
		Client: ClientName,
		Speeds: w.recorder.Snapshot(),
	})
}

// Ready un-gates the producer: offer the next block (or close).
func (w *writer) Ready(int) { w.offerNext() }

func (w *writer) BlockCommitted(idx int) {
	w.trackPipes(-1)
	if sp := w.blockSpans[idx]; sp != nil {
		sp.End()
	}
}

func (w *writer) FileDone(err error) {
	s := w.s
	w.done = true
	w.err = err
	w.endTime = s.eng.Now()
	if w.root != nil {
		if err != nil {
			w.root.Fail(err)
		}
		w.root.End()
	}
	s.eng.Stop()
}

func (w *writer) trackPipes(delta int) {
	w.activePipes += delta
	if w.activePipes > w.peakPipes {
		w.peakPipes = w.activePipes
	}
}

// StartPipeline streams block idx through lb's pipeline at packet
// granularity.
func (w *writer) StartPipeline(idx int, lb block.LocatedBlock, _ policy.Shape, restream bool) {
	s := w.s
	targets := lb.Targets
	if !restream {
		w.firstUse[targets[0].Name]++
		w.trackPipes(1)
		w.startAt[idx] = s.eng.Now()
		if w.tracer != nil {
			sp := w.tracer.StartSpan("block", w.root)
			sp.SetAttr("idx", strconv.Itoa(idx))
			sp.SetAttr("first", targets[0].Name)
			w.blockSpans[idx] = sp
		}
	} else if sp := w.blockSpans[idx]; sp != nil {
		sp.SetAttr("first", targets[0].Name)
		sp.Event("restream", targets[0].Name)
	}

	var fault *PipelineFault
	if !restream {
		for i := range s.cfg.PipelineFaults {
			if s.cfg.PipelineFaults[i].Block == idx {
				fault = &s.cfg.PipelineFaults[i]
				break
			}
		}
	}

	var onFNFA func()
	if s.cfg.Mode == proto.ModeSmarth && !restream {
		start := w.startAt[idx]
		first := targets[0].Name
		onFNFA = func() {
			if sp := w.blockSpans[idx]; sp != nil {
				sp.Event("fnfa", first)
			}
			w.eng.HandleFNFA(idx, s.eng.Now()-start)
		}
	}
	w.launchPipeline(idx, targets, fault, onFNFA, func() { w.eng.HandleDrained(idx) })
}

// --- the shared packet-level pipeline model ---

// never is the abort time of a launch without a fault.
const never = time.Duration(math.MaxInt64)

// launch is one pipeline streaming one block: what every packet of it
// shares.
type launch struct {
	w          *writer
	nodes      []*netsim.Node
	numPackets int
	// abortAt is when an injected fault breaks the pipeline (never, for a
	// launch without one). A packet step at or after it drops the packet,
	// so a stale ack can never masquerade as a drain.
	abortAt    time.Duration
	onFNFA     func() // may be nil
	onAllAcked func()
	lastBytes  int64         // size of packet numPackets-1; every other one is PacketSize
	step       func(tag int) // l.advance, bound once: every packet's arrival callback
}

// launchPipeline streams block i through the target pipeline. onFNFA
// (may be nil) fires when the first datanode has stored the whole block;
// onAllAcked fires when the last packet's ack returns from the whole
// pipeline. A non-nil fault truncates production after fault.AfterPackets
// packets and reports the failure to the engine instead.
//
// Only where a packet can meet another flow — at a datanode's ingress or
// cross-rack shaper — is its arrival an event, and its completion there.
// Production, the disks, the egresses and the hop latency have one
// feeder apiece, so their times are computed when the packet joins them
// (DESIGN.md §15). A packet in flight is its job in a server's ring,
// tagged k*len(nodes)+hop: packet k heading for datanode hop.
func (w *writer) launchPipeline(i int, targets []block.DatanodeInfo, fault *PipelineFault, onFNFA, onAllAcked func()) {
	s := w.s
	total := w.blockBytes(i)
	numPackets := int((total + s.cfg.PacketSize - 1) / s.cfg.PacketSize)
	if numPackets == 0 {
		numPackets = 1
	}
	l := &launch{w: w, numPackets: numPackets, abortAt: never, onFNFA: onFNFA, onAllAcked: onAllAcked}
	l.step = l.advance
	l.nodes = make([]*netsim.Node, len(targets))
	for j, t := range targets {
		l.nodes[j] = s.nw.Node(t.Name)
		if l.nodes[j] == nil {
			panic("sim: unknown datanode " + t.Name)
		}
	}
	l.lastBytes = total % s.cfg.PacketSize
	if l.lastBytes == 0 {
		l.lastBytes = s.cfg.PacketSize // exact multiple: every packet full
	}

	limit := numPackets
	if fault != nil && fault.AfterPackets < numPackets {
		limit = fault.AfterPackets
	} else {
		fault = nil
	}
	// The fault's event takes its tie-break position before any packet's,
	// as the production slot it stands for did.
	var faultSeq uint64
	if fault != nil {
		faultSeq = s.eng.ReserveSeq()
	}
	// The client produces packets sequentially (T_c each) and sends each
	// to the first datanode through its NIC as it is produced.
	now := s.eng.Now()
	for k := 0; k < limit; k++ {
		bytes := l.packetBytes(k)
		produced := w.production.Enqueue(now, bytes)
		s.nw.Deliver(w.node, l.nodes[0], bytes, produced, l.step, k*len(l.nodes))
	}
	if fault != nil {
		bad, at := fault.BadIndex, fault.AfterPackets
		// The next packet's production slot is where the client notices
		// the broken pipe; one hop later the failure is reported.
		l.abortAt = w.production.Enqueue(now, l.packetBytes(limit))
		s.eng.AtSeq(l.abortAt, faultSeq, func() {
			s.eng.Schedule(s.cfg.HopLatency, func() {
				w.eng.HandleFailed(i, writesched.PipelineFailure{
					BadIndex: bad,
					Cause:    fmt.Errorf("sim: injected pipeline fault on block %d after %d packets", i, at),
				})
			})
		})
	}
}

func (l *launch) packetBytes(k int) int64 {
	if k == l.numPackets-1 {
		return l.lastBytes
	}
	return l.w.s.cfg.PacketSize
}

// firstNodeAcked delivers the FNFA unless the launch has aborted.
func (l *launch) firstNodeAcked() {
	if l.w.s.eng.Now() < l.abortAt {
		l.onFNFA()
	}
}

// allAcked reports the drain unless the launch has aborted.
func (l *launch) allAcked() {
	if l.w.s.eng.Now() < l.abortAt {
		l.onAllAcked()
	}
}

// advance takes the packet tag names (see launchPipeline) off its hop's
// ingress, stores it there and sends it on.
func (l *launch) advance(tag int) {
	s := l.w.s
	k, hop := tag/len(l.nodes), tag%len(l.nodes)
	// One hop latency on the ingress reaches the datanode, and the disk
	// takes the packet; the disk's one feeder is this ingress, so its write
	// is timed now.
	arrive := s.eng.Now() + s.cfg.HopLatency
	if l.abortAt <= arrive {
		return
	}
	bytes := l.packetBytes(k)
	node := l.nodes[hop]
	stored := node.Disk.Enqueue(arrive, bytes)
	if l.abortAt <= stored {
		return
	}
	// Stored locally; mirror to the next hop.
	last := hop == len(l.nodes)-1
	if !last {
		s.nw.Deliver(node, l.nodes[hop+1], bytes, stored, l.step, tag+1)
	}
	if k < l.numPackets-1 {
		return
	}
	if hop == 0 && l.onFNFA != nil {
		// FNFA: one hop of latency back to the client.
		s.eng.At(stored+s.cfg.HopLatency, l.firstNodeAcked)
	}
	if last {
		// The combined ack travels the pipeline in reverse; the paper
		// treats ack transfer time as negligible, so only latency is
		// charged. Acks return in packet order — every packet leaves the
		// same last-hop FIFO disk, then waits the same latency — so only
		// the block's last one is an event: when it lands, every earlier
		// ack has.
		s.eng.At(stored+time.Duration(len(l.nodes))*s.cfg.HopLatency, l.allAcked)
	}
}
