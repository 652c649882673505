// Package client implements the DFS client: file creation, the baseline
// HDFS stop-and-wait single-pipeline writer, the SMARTH asynchronous
// multi-pipeline writer (with Algorithm 2 local optimization and
// Algorithm 4 fault tolerance), block reads, and the heartbeat that
// reports observed transfer speeds to the namenode.
//
// Both writers are one adapter (schedwriter.go) around the shared
// write-scheduling engine in internal/writesched, which owns every
// protocol decision; this package supplies the effects — namenode RPCs,
// pipeline I/O, speed recording.
//
// Concurrency and ownership invariants:
//
//   - A Writer is single-caller: Write and Close must come from one
//     goroutine (the usual io.Writer contract). All cross-goroutine
//     state below is internal.
//   - Each open pipeline has two goroutines: the sender (streamBlock),
//     the only writer on the data conn, which returns once the block is
//     streamed, and the ack reader, the only reader of acks on it. The
//     first failure on either side fails the pipeline and closes the
//     conn; the ack reader waits for the sender, then reports the
//     outcome to the engine and ends the pipeline's trace span.
//   - Namenode RPCs for one write run on a single FIFO worker
//     goroutine, one at a time and one frame each, preserving the
//     engine's effect order on the wire.
//   - A reader (Open, ReadRange) is single-caller too. A block is read
//     from one replica conn by the Read caller itself, under the
//     Progress deadline; the only goroutine the read path starts
//     dials the next block's replica and hands the connected stream
//     over a channel before its first Read.
//   - A block's staging buffer is a bufpool buffer the producer fills
//     to the block boundary and hands over whole; its pipelines stream
//     (and re-stream) from it until the block commits, which returns it
//     to the pool. Both modes take this path.
//   - The speed recorder and the namenode session are mutex-guarded
//     and shared by all writers of the client; everything on the data
//     path is pipeline-local and lock-free (see DESIGN.md §7 for the
//     packet/ack ownership rules it relies on).
package client

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/block"
	"repro/internal/checksum"
	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/nnapi"
	"repro/internal/obs"
	"repro/internal/proto"
	"repro/internal/rpc"
	"repro/internal/transport"
	"repro/internal/writesched"
)

// Options configure a Client.
type Options struct {
	// Name identifies this client to the namenode and datanodes.
	Name string
	// NamenodeAddr is the namenode's RPC address.
	NamenodeAddr string
	// Network is the transport substrate.
	Network transport.Network
	// Clock defaults to the system clock.
	Clock clock.Clock
	// HeartbeatInterval defaults to core.HeartbeatInterval (3 s).
	HeartbeatInterval time.Duration
	// Seed drives the local-optimization randomness (0 = from clock).
	Seed int64
	// Timeouts bound the client's blocking points (data-path progress,
	// namenode RPCs); a zero field takes its DefaultTimeouts value.
	Timeouts Timeouts
	// Obs, when set, receives the client's metrics (packet RTT, FNFA
	// latency, block commit time, RPC retries) and write-path trace
	// spans. nil disables observability at negligible cost.
	Obs *obs.Obs
	// Logf, when set, receives diagnostic messages.
	Logf func(format string, args ...any)
}

// WriteOptions configure one file write. The protocol is chosen by the
// call: CreateHDFS or CreateSmarth.
type WriteOptions struct {
	// Replication defaults to 3.
	Replication int
	// BlockSize defaults to 64 MB.
	BlockSize int64
	// PacketSize defaults to 64 KB and is rounded up to a multiple of the
	// 512 B checksum chunk: every packet but a block's last carries whole
	// chunks (HDFS's rule; datanodes refuse anything else).
	PacketSize int
	// Overwrite replaces an existing file.
	Overwrite bool
	// DisableLocalOpt turns off Algorithm 2 (ablation knob).
	DisableLocalOpt bool
	// MaxPipelines caps concurrent SMARTH pipelines; 0 means the paper's
	// rule, activeDatanodes / replication.
	MaxPipelines int
	// Script, when set, makes the write a conformance replay: scripted
	// Algorithm 2 seed and FNFA speed samples, strict launch-order
	// retirement, and a decision log (see writesched.Script).
	Script *writesched.Script
}

func (o *WriteOptions) applyDefaults() {
	if o.Replication <= 0 {
		o.Replication = 3
	}
	if o.BlockSize <= 0 {
		o.BlockSize = proto.DefaultBlockSize
	}
	if o.PacketSize <= 0 {
		o.PacketSize = proto.DefaultPacketSize
	}
	const cs = checksum.DefaultChunkSize
	o.PacketSize = (o.PacketSize + cs - 1) / cs * cs
}

// Client talks to one cluster.
type Client struct {
	opts Options
	clk  clock.Clock

	// nn is the namenode session shared by every writer and reader of the
	// client; dialer opens every data connection (DESIGN.md §3).
	nn     *rpc.Session
	dialer proto.Dialer

	mu  sync.Mutex // guards rng
	rng *rand.Rand

	recorder *core.Recorder

	// Observability handles, cached at construction so hot paths never
	// touch the registry. All are nil-safe: with Options.Obs unset every
	// field is nil and each call site degrades to a no-op.
	obs           *obs.Obs
	mPacketRTT    *obs.Histogram // client→first-DN packet round trip
	mFNFA         *obs.Histogram // block launch → FIRST NODE FINISH ACK
	mBlockCommit  *obs.Histogram // block launch → all acks drained
	mRecoveries   *obs.Counter   // Algorithm 3/4 recovery episodes
	mReadFill     *obs.Histogram // block-read wait for the next packet
	mBlocksRead   *obs.Counter   // block streams opened
	mReadFailover *obs.Counter   // replicas dropped mid-read

	stopCh    chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup
}

// New constructs a client and starts its heartbeat loop.
func New(opts Options) (*Client, error) {
	if opts.Name == "" || opts.NamenodeAddr == "" || opts.Network == nil {
		return nil, errors.New("client: Name, NamenodeAddr and Network are required")
	}
	if opts.Clock == nil {
		opts.Clock = clock.System
	}
	if opts.HeartbeatInterval <= 0 {
		opts.HeartbeatInterval = core.HeartbeatInterval
	}
	if opts.Logf == nil {
		opts.Logf = func(string, ...any) {}
	}
	seed := opts.Seed
	if seed == 0 {
		seed = opts.Clock.Now().UnixNano()
	}
	opts.Timeouts = opts.Timeouts.orDefaults()
	c := &Client{
		opts:     opts,
		clk:      opts.Clock,
		rng:      rand.New(rand.NewSource(seed)),
		recorder: core.NewRecorder(),
		obs:      opts.Obs,
		stopCh:   make(chan struct{}),
		nn:       rpc.NewSession(opts.Network, opts.Name, opts.NamenodeAddr, opts.Timeouts.RPC, opts.Clock),
		dialer:   proto.Dialer{Network: opts.Network, Local: opts.Name, Clock: opts.Clock, Progress: opts.Timeouts.Progress},
	}
	if opts.Obs != nil {
		comp := opts.Obs.Component("client/" + opts.Name)
		c.dialer.Metrics = obs.NewConnMetrics(comp)
		c.mPacketRTT = comp.Histogram("packet_rtt_ns")
		c.mFNFA = comp.Histogram("fnfa_latency_ns")
		c.mBlockCommit = comp.Histogram("block_commit_ns")
		c.nn.Latency = comp.Histogram("rpc_call_ns")
		c.mRecoveries = comp.Counter("recoveries")
		c.nn.Retries = comp.Counter("rpc_retries")
		c.mReadFill = comp.Histogram("read_fill_ns")
		c.mBlocksRead = comp.Counter("blocks_read")
		c.mReadFailover = comp.Counter("read_failovers")
	}
	c.wg.Add(1)
	go c.heartbeatLoop()
	return c, nil
}

// Name returns the client's identity.
func (c *Client) Name() string { return c.opts.Name }

// Recorder exposes the client's speed table (tests, tools).
func (c *Client) Recorder() *core.Recorder { return c.recorder }

// Close stops the heartbeat loop and drops the namenode connection.
func (c *Client) Close() {
	c.closeOnce.Do(func() {
		close(c.stopCh)
		c.nn.Close()
		c.wg.Wait()
	})
}

// heartbeatLoop pushes the speed table to the namenode every interval —
// the SMARTH client-side half of the global optimization.
func (c *Client) heartbeatLoop() {
	defer c.wg.Done()
	for {
		select {
		case <-c.stopCh:
			return
		case <-c.clk.After(c.opts.HeartbeatInterval):
		}
		c.SendHeartbeat()
	}
}

// SendHeartbeat pushes the current speed table immediately and renews the
// client's write leases. The SMARTH writer also calls this after each
// block so fresh measurements reach the namenode promptly even in short
// tests; an empty speed table is still sent because the heartbeat doubles
// as the lease renewal.
func (c *Client) SendHeartbeat() {
	err := c.nn.Call(nnapi.MethodClientHeartbeat, nnapi.ClientHeartbeatReq{
		Client: c.opts.Name,
		Speeds: c.recorder.Snapshot(),
	}, &nnapi.ClientHeartbeatResp{})
	if err != nil {
		c.opts.Logf("client %s: heartbeat: %v", c.opts.Name, err)
	}
}

// --- typed ClientProtocol wrappers ---

func (c *Client) createFile(path string, opts WriteOptions) error {
	return c.nn.Call(nnapi.MethodCreate, nnapi.CreateReq{
		Path:        path,
		Client:      c.opts.Name,
		Replication: opts.Replication,
		BlockSize:   opts.BlockSize,
		Overwrite:   opts.Overwrite,
	}, &nnapi.CreateResp{})
}

// addBlock allocates the file's next block. prev is the last block this
// writer was granted; the namenode uses it to de-duplicate retried
// requests (the session may retry an attempt the namenode already executed).
func (c *Client) addBlock(path string, mode proto.WriteMode, exclude []string, prev block.Block) (nnapi.AddBlockResp, error) {
	var resp nnapi.AddBlockResp
	err := c.nn.Call(nnapi.MethodAddBlock, nnapi.AddBlockReq{
		Path: path, Client: c.opts.Name, Mode: mode, Exclude: exclude, Previous: prev,
	}, &resp)
	return resp, err
}

func (c *Client) recoverBlock(req nnapi.RecoverBlockReq) (nnapi.RecoverBlockResp, error) {
	req.Client = c.opts.Name
	var resp nnapi.RecoverBlockResp
	err := c.nn.Call(nnapi.MethodRecoverBlock, req, &resp)
	return resp, err
}

// completeFile polls the namenode until every block reaches minimal
// replication, backing off exponentially (10 ms doubling to a 500 ms
// cap) within a fixed overall budget instead of the old fixed-cadence
// 100×20 ms spin.
func (c *Client) completeFile(path string) error {
	const budget = 15 * time.Second
	start := c.clk.Now()
	backoff := 10 * time.Millisecond
	for {
		var resp nnapi.CompleteResp
		if err := c.nn.Call(nnapi.MethodComplete, nnapi.CompleteReq{Path: path, Client: c.opts.Name}, &resp); err != nil {
			return err
		}
		if resp.Done {
			return nil
		}
		if c.clk.Now().Sub(start) >= budget {
			return fmt.Errorf("client: complete %s: blocks not minimally replicated within %v", path, budget)
		}
		select {
		case <-c.stopCh:
			return errors.New("client: closed")
		case <-c.clk.After(backoff):
		}
		backoff *= 2
		if backoff > 500*time.Millisecond {
			backoff = 500 * time.Millisecond
		}
	}
}

func (c *Client) clusterInfo() (nnapi.ClusterInfoResp, error) {
	var resp nnapi.ClusterInfoResp
	err := c.nn.Call(nnapi.MethodClusterInfo, nnapi.ClusterInfoReq{}, &resp)
	return resp, err
}

// GetFileInfo returns file metadata.
func (c *Client) GetFileInfo(path string) (nnapi.GetFileInfoResp, error) {
	var resp nnapi.GetFileInfoResp
	err := c.nn.Call(nnapi.MethodGetFileInfo, nnapi.GetFileInfoReq{Path: path}, &resp)
	return resp, err
}

// getBlockLocations resolves a file's blocks and replica locations.
func (c *Client) getBlockLocations(path string) (nnapi.GetBlockLocationsResp, error) {
	var resp nnapi.GetBlockLocationsResp
	err := c.nn.Call(nnapi.MethodGetBlockLocations, nnapi.GetBlockLocationsReq{Path: path, Client: c.opts.Name}, &resp)
	return resp, err
}

// Delete removes a file; it reports whether the file existed.
func (c *Client) Delete(path string) (bool, error) {
	var resp nnapi.DeleteResp
	err := c.nn.Call(nnapi.MethodDelete, nnapi.DeleteReq{Path: path}, &resp)
	return resp.Deleted, err
}

// Rename moves a file; the destination must not exist.
func (c *Client) Rename(src, dst string) error {
	return c.nn.Call(nnapi.MethodRename, nnapi.RenameReq{Src: src, Dst: dst}, &nnapi.RenameResp{})
}

// List enumerates files under a path prefix ("" = everything), with
// replication health per file.
func (c *Client) List(prefix string) ([]nnapi.FileStatus, error) {
	var resp nnapi.ListResp
	err := c.nn.Call(nnapi.MethodList, nnapi.ListReq{Prefix: prefix}, &resp)
	return resp.Files, err
}

// Decommission starts (cancel=false) or cancels draining a datanode.
func (c *Client) Decommission(name string, cancel bool) error {
	return c.nn.Call(nnapi.MethodDecommission, nnapi.DecommissionReq{Name: name, Cancel: cancel}, &nnapi.DecommissionResp{})
}

// DecommissionStatus reports a drain's progress.
func (c *Client) DecommissionStatus(name string) (nnapi.DecommStatusResp, error) {
	var resp nnapi.DecommStatusResp
	err := c.nn.Call(nnapi.MethodDecommStatus, nnapi.DecommStatusReq{Name: name}, &resp)
	return resp, err
}

// Balance schedules one round of replica moves from over-full to
// under-full datanodes (copy-then-delete; redundancy never drops).
func (c *Client) Balance(threshold float64) (nnapi.BalanceResp, error) {
	var resp nnapi.BalanceResp
	err := c.nn.Call(nnapi.MethodBalance, nnapi.BalanceReq{Threshold: threshold}, &resp)
	return resp, err
}
