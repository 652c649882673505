// Package namenode implements the cluster's metadata server: the
// namespace (files and blocks), datanode liveness tracking, replica
// placement — delegated to internal/policy, which covers both HDFS's
// topology policy and SMARTH's Algorithm 1 global optimization — and
// the RPC surface defined in package nnapi.
//
// Concurrency: one lock, Namenode.mu, guards all of the namenode's
// state — the namespace, the leases, the block map, the datanode
// map, the replication queues and the safe-mode flag — as Hadoop's
// FSNamesystem lock does. The rule is: exported methods lock, nothing
// else does. Each RPC handler takes nn.mu once, at entry, and holds it
// to the reply, so every answer is one point in time; SaveImage and
// LoadImage hold it around the namespace and do their I/O outside it.
// Nothing called under nn.mu takes it again (TestEveryMethodUnderOneLock
// checks this, DESIGN.md §12). The speed registry and the topology keep
// their own leaf locks, because code outside the namenode reads them
// too.
package namenode

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/block"
	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/nnapi"
	"repro/internal/obs"
	"repro/internal/policy"
	"repro/internal/proto"
	"repro/internal/rpc"
	"repro/internal/transport"
)

// DefaultLeaseTimeout is how long an under-construction file survives
// without any sign of life from its writer before the namenode recovers
// the lease (HDFS's soft limit is 60 s).
const DefaultLeaseTimeout = time.Minute

// Options configure a Namenode.
type Options struct {
	// Clock defaults to the system clock.
	Clock clock.Clock
	// Expiry is the datanode liveness window (DefaultExpiry when zero).
	Expiry time.Duration
	// Seed drives placement randomness; a fixed seed makes tests and
	// simulations reproducible. Zero means seed from the system clock.
	Seed int64
	// Obs, when set, receives metrics (RPC latency per method, placement
	// decisions, block recoveries) under the "namenode" component.
	Obs *obs.Obs
}

// methodMetrics holds one RPC method's latency histogram and error
// counter.
type methodMetrics struct {
	lat  *obs.Histogram
	errs *obs.Counter
}

// Namenode is the metadata server. Create one with New, then Serve it on
// a transport listener (or call its methods directly in-process, which is
// what the discrete-event simulator does).
type Namenode struct {
	// server is built with the namenode: Serve serves it and Close closes
	// it, whichever of the two runs first.
	server *rpc.Server

	// mu is the namenode lock: every field below it is read and written
	// only by an exported method holding it (see the package doc).
	mu sync.Mutex

	clk      clock.Clock
	ns       *namesystem
	dm       *datanodeManager
	registry *core.Registry
	repl     *replicationManager
	rng      *rand.Rand

	// safeMode blocks namespace mutations after a restart until enough
	// blocks have at least one reported replica (like HDFS startup).
	safeMode bool

	// view is what policy.Place sees of the cluster for every pipeline
	// (client writes, recovery top-ups and re-replication): one
	// placementView for the namenode's life, boxed once.
	view policy.ClusterView

	// Observability (nil-safe no-ops when Options.Obs is unset).
	obsComp          *obs.Component
	mm               map[string]methodMetrics
	mPlaceSmarth     *obs.Counter
	mPlaceDefault    *obs.Counter
	mBlocksAllocated *obs.Counter
	mBlockRecoveries *obs.Counter
	mRPCs            *obs.Counter // RPCs served
}

// New constructs a namenode.
func New(opts Options) *Namenode {
	clk := opts.Clock
	if clk == nil {
		clk = clock.System
	}
	seed := opts.Seed
	if seed == 0 {
		seed = clk.Now().UnixNano()
	}
	rng := rand.New(rand.NewSource(seed))
	dm := newDatanodeManager(clk, opts.Expiry)
	registry := core.NewRegistry()
	nn := &Namenode{
		server:   rpc.NewServer(),
		clk:      clk,
		ns:       newNamesystem(),
		dm:       dm,
		registry: registry,
		repl:     newReplicationManager(dm.expiry),
		rng:      rng,
		view:     placementView{dm: dm, registry: registry},
	}
	nn.obsComp = opts.Obs.Component("namenode")
	nn.mPlaceSmarth = nn.obsComp.Counter("placement_smarth")
	nn.mPlaceDefault = nn.obsComp.Counter("placement_default")
	nn.mBlocksAllocated = nn.obsComp.Counter("blocks_allocated")
	nn.mBlockRecoveries = nn.obsComp.Counter("block_recoveries")
	nn.mRPCs = nn.obsComp.Counter("nn_rpcs")
	return nn
}

// Registry exposes the speed-record registry (used by tests and tools).
func (nn *Namenode) Registry() *core.Registry { return nn.registry }

// place runs one placement decision. Liveness is decided here, once,
// from one reading of the clock: every node the policy considers is
// judged against the same instant.
func (nn *Namenode) place(mode proto.WriteMode, client string, replication int, exclude []string) ([]block.DatanodeInfo, error) {
	dm := nn.dm
	dm.placeable = dm.appendAlive(dm.placeable[:0], nn.clk.Now())
	return policy.Place(nn.view, policy.PlaceInput{
		Client:      client,
		Mode:        mode,
		Replication: replication,
		Exclude:     exclude,
		Rng:         nn.rng,
	})
}

// serve registers one RPC method and, with observability on, builds its
// latency histogram and error counter.
func serve[Req, Resp any, PReq rpc.Message[Req], PResp rpc.Message[Resp]](nn *Namenode, s *rpc.Server, method string, fn func(Req) (Resp, error)) {
	rpc.Handle[Req, Resp, PReq, PResp](s, method, fn)
	if nn.mm != nil {
		nn.mm[method] = methodMetrics{
			lat:  nn.obsComp.Histogram("rpc_" + method + "_ns"),
			errs: nn.obsComp.Counter("rpc_" + method + "_errors"),
		}
	}
}

// Serve runs the RPC server on l until the listener closes, or returns
// at once if Close has run. Call it once.
func (nn *Namenode) Serve(l transport.Listener) {
	s := nn.server
	if nn.obsComp != nil {
		// Per-method metrics are built here, before the first request, so
		// the observer callback is a lock-free map read + atomic update.
		nn.mm = make(map[string]methodMetrics)
		s.SetObserver(func(method string, d time.Duration, errored bool) {
			nn.mRPCs.Inc()
			mm, ok := nn.mm[method]
			if !ok {
				return
			}
			mm.lat.Observe(d.Nanoseconds())
			if errored {
				mm.errs.Inc()
			}
		})
	}
	serve(nn, s, nnapi.MethodCreate, nn.Create)
	serve(nn, s, nnapi.MethodAddBlock, nn.AddBlock)
	serve(nn, s, nnapi.MethodComplete, nn.Complete)
	serve(nn, s, nnapi.MethodRecoverBlock, nn.RecoverBlock)
	serve(nn, s, nnapi.MethodClientHeartbeat, nn.ClientHeartbeat)
	serve(nn, s, nnapi.MethodGetBlockLocations, nn.GetBlockLocations)
	serve(nn, s, nnapi.MethodGetFileInfo, nn.GetFileInfo)
	serve(nn, s, nnapi.MethodClusterInfo, nn.ClusterInfo)
	serve(nn, s, nnapi.MethodDelete, nn.Delete)
	serve(nn, s, nnapi.MethodRename, nn.Rename)
	serve(nn, s, nnapi.MethodList, nn.List)
	serve(nn, s, nnapi.MethodRegister, nn.Register)
	serve(nn, s, nnapi.MethodHeartbeat, nn.Heartbeat)
	serve(nn, s, nnapi.MethodBlockReceived, nn.BlockReceived)
	serve(nn, s, nnapi.MethodBlockReceivedBatch, nn.BlockReceivedBatch)
	s.Serve(l)
}

// Close stops the RPC server, whether Serve has started it yet or runs
// later. It does not take nn.mu, which the in-flight handlers the server
// waits for need.
func (nn *Namenode) Close() { nn.server.Close() }

// --- ClientProtocol ---

// checkSafeMode recomputes and reports safe-mode state: the namenode
// leaves safe mode once every known block has at least one reported
// replica (or the namespace holds no blocks). The block-map scan runs
// only while safe mode is still on.
func (nn *Namenode) checkSafeMode() error {
	if !nn.safeMode {
		return nil
	}
	if nn.ns.anyUnreportedBlock() {
		return ErrSafeMode
	}
	nn.safeMode = false
	return nil
}

// Create makes a new file in the namespace (write step 1).
func (nn *Namenode) Create(req nnapi.CreateReq) (nnapi.CreateResp, error) {
	nn.mu.Lock()
	defer nn.mu.Unlock()
	if err := nn.checkSafeMode(); err != nil {
		return nnapi.CreateResp{}, err
	}
	return nnapi.CreateResp{}, nn.ns.create(req.Path, req.Client, req.Replication, req.BlockSize, req.Overwrite, nn.clk.Now(), nn.dm)
}

// AddBlock allocates the file's next block and chooses its pipeline with
// the policy matching the requested write mode. A retried request whose
// Previous shows it never saw the last grant gets that unwritten tail
// back instead of a new block (namesystem.reusableTail).
func (nn *Namenode) AddBlock(req nnapi.AddBlockReq) (nnapi.AddBlockResp, error) {
	nn.mu.Lock()
	defer nn.mu.Unlock()
	if err := nn.checkSafeMode(); err != nil {
		return nnapi.AddBlockResp{}, err
	}
	f, err := nn.ns.checkLease(req.Path, req.Client)
	if err != nil {
		return nnapi.AddBlockResp{}, err
	}
	nn.ns.renew(req.Client, nn.clk.Now())
	targets, err := nn.place(req.Mode, req.Client, f.replication, req.Exclude)
	if err != nil {
		return nnapi.AddBlockResp{}, err
	}
	if req.Mode == proto.ModeSmarth {
		nn.mPlaceSmarth.Inc()
	} else {
		nn.mPlaceDefault.Inc()
	}
	b, reused := nn.ns.reusableTail(f, req.Previous)
	if !reused {
		b = nn.ns.allocateBlock(f)
		nn.mBlocksAllocated.Inc()
	}
	return nnapi.AddBlockResp{Located: block.LocatedBlock{Block: b, Targets: targets}}, nil
}

// Complete finishes the file once every block is minimally replicated
// (write step 6). Done=false asks the client to retry shortly, matching
// HDFS's completeFile loop.
func (nn *Namenode) Complete(req nnapi.CompleteReq) (nnapi.CompleteResp, error) {
	nn.mu.Lock()
	defer nn.mu.Unlock()
	done, err := nn.ns.complete(req.Path, req.Client)
	return nnapi.CompleteResp{Done: done}, err
}

// RecoverBlock re-provisions a failed pipeline: bump the generation
// stamp, schedule stale replicas for deletion, and build a fresh target
// list (surviving nodes first, then replacements chosen by placement).
func (nn *Namenode) RecoverBlock(req nnapi.RecoverBlockReq) (nnapi.RecoverBlockResp, error) {
	nn.mu.Lock()
	defer nn.mu.Unlock()
	if err := nn.checkSafeMode(); err != nil {
		return nnapi.RecoverBlockResp{}, err
	}
	f, err := nn.ns.checkLease(req.Path, req.Client)
	if err != nil {
		return nnapi.RecoverBlockResp{}, err
	}
	now := nn.clk.Now()
	nn.ns.renew(req.Client, now)
	meta, ok := nn.ns.blocks[req.Block.ID]
	if !ok || meta.path != f.path {
		return nnapi.RecoverBlockResp{}, fmt.Errorf("%w: %v", ErrUnknownBlock, req.Block)
	}
	for _, dn := range meta.locations {
		nn.dm.scheduleInvalidate(dn, req.Block.ID, req.Block.Gen)
	}
	nn.ns.bumpGeneration(meta)
	// Keep the surviving datanodes (they already hold partial data and
	// proved reachable), then top up to the replication factor.
	targets := make([]block.DatanodeInfo, 0, f.replication)
	taken := make([]string, 0, len(req.Alive)+len(req.Exclude))
	taken = append(taken, req.Exclude...)
	for _, name := range req.Alive {
		if e, ok := nn.dm.nodes[name]; ok && nn.dm.isAlive(e, now) && len(targets) < f.replication {
			targets = append(targets, e.info)
			taken = append(taken, name)
		}
	}
	if missing := f.replication - len(targets); missing > 0 {
		extra, err := nn.place(req.Mode, req.Client, missing, taken)
		if err != nil && len(targets) == 0 {
			return nnapi.RecoverBlockResp{}, fmt.Errorf("recover %v: %w", req.Block, err)
		}
		targets = append(targets, extra...)
	}
	nn.mBlockRecoveries.Inc()
	return nnapi.RecoverBlockResp{Located: block.LocatedBlock{Block: meta.cur, Targets: targets}}, nil
}

// ClientHeartbeat ingests a client's speed records (SMARTH §III-B) and
// renews the client's lease, one map probe whatever it holds open.
func (nn *Namenode) ClientHeartbeat(req nnapi.ClientHeartbeatReq) (nnapi.ClientHeartbeatResp, error) {
	nn.mu.Lock()
	defer nn.mu.Unlock()
	nn.registry.Update(req.Client, req.Speeds)
	nn.ns.renew(req.Client, nn.clk.Now())
	return nnapi.ClientHeartbeatResp{}, nil
}

// expireLeases ends every lease whose holder has been silent for the
// lease timeout: its open files are recovered (recoverLease), in path
// order across all expired leases, and its speed records forgotten. A
// writer that finished or died is not coming back under that name
// (smarth-put names itself after its pid), and its table would
// otherwise stay for the life of the namenode; one that returns later
// starts afresh, as a new client does.
func (nn *Namenode) expireLeases(now time.Time) {
	var expired []*fileInode
	for client, l := range nn.ns.leases {
		if now.Sub(l.renewed) >= DefaultLeaseTimeout {
			delete(nn.ns.leases, client)
			nn.registry.ForgetClient(client)
			for _, f := range l.files {
				expired = append(expired, f)
			}
		}
	}
	sort.Slice(expired, func(i, j int) bool { return expired[i].path < expired[j].path })
	for _, f := range expired {
		nn.ns.recoverLease(f, nn.dm)
	}
}

// GetBlockLocations returns each block of a file with the datanodes known
// to hold finalized replicas. When the request names a client, holders
// are ordered by network distance from it (node-local, then rack-local,
// then remote), so readers prefer close replicas; otherwise the order is
// stable by name.
func (nn *Namenode) GetBlockLocations(req nnapi.GetBlockLocationsReq) (nnapi.GetBlockLocationsResp, error) {
	nn.mu.Lock()
	defer nn.mu.Unlock()
	f, ok := nn.ns.files[req.Path]
	if !ok {
		return nnapi.GetBlockLocationsResp{}, fmt.Errorf("%w: %s", ErrFileNotFound, req.Path)
	}
	now := nn.clk.Now()
	var resp nnapi.GetBlockLocationsResp
	for _, id := range f.blocks {
		if meta, ok := nn.ns.blocks[id]; ok {
			resp.Len += meta.cur.NumBytes
			resp.Blocks = append(resp.Blocks, block.LocatedBlock{
				Block:   meta.cur,
				Targets: nn.dm.orderedHolders(req.Client, meta.locations, now),
			})
		}
	}
	return resp, nil
}

// Delete removes a file and schedules every replica for deletion.
func (nn *Namenode) Delete(req nnapi.DeleteReq) (nnapi.DeleteResp, error) {
	nn.mu.Lock()
	defer nn.mu.Unlock()
	if err := nn.checkSafeMode(); err != nil {
		return nnapi.DeleteResp{}, err
	}
	f, ok := nn.ns.files[req.Path]
	if !ok {
		return nnapi.DeleteResp{}, nil
	}
	nn.ns.removeInode(f, nn.dm)
	return nnapi.DeleteResp{Deleted: true}, nil
}

// Rename moves a file in the namespace.
func (nn *Namenode) Rename(req nnapi.RenameReq) (nnapi.RenameResp, error) {
	nn.mu.Lock()
	defer nn.mu.Unlock()
	if err := nn.checkSafeMode(); err != nil {
		return nnapi.RenameResp{}, err
	}
	return nnapi.RenameResp{}, nn.ns.rename(req.Src, req.Dst)
}

// List enumerates files under a path prefix, sorted by path, with
// replication health. A concurrent rename is listed at its source or at
// its destination, never at both or neither.
func (nn *Namenode) List(req nnapi.ListReq) (nnapi.ListResp, error) {
	nn.mu.Lock()
	defer nn.mu.Unlock()
	now := nn.clk.Now()
	var resp nnapi.ListResp
	for path, f := range nn.ns.files {
		if !strings.HasPrefix(path, req.Prefix) {
			continue
		}
		st := nnapi.FileStatus{
			Path:            path,
			Replication:     f.replication,
			Complete:        f.complete,
			MinLiveReplicas: -1,
		}
		for _, id := range f.blocks {
			meta, ok := nn.ns.blocks[id]
			if !ok {
				continue
			}
			st.NumBlocks++
			st.Len += meta.cur.NumBytes
			live := 0
			for _, holder := range meta.locations {
				if e, ok := nn.dm.nodes[holder]; ok && nn.dm.isAlive(e, now) {
					live++
				}
			}
			if st.MinLiveReplicas < 0 || live < st.MinLiveReplicas {
				st.MinLiveReplicas = live
			}
		}
		if st.MinLiveReplicas < 0 {
			st.MinLiveReplicas = 0
		}
		resp.Files = append(resp.Files, st)
	}
	sort.Slice(resp.Files, func(i, j int) bool { return resp.Files[i].Path < resp.Files[j].Path })
	return resp, nil
}

// GetFileInfo reports file metadata.
func (nn *Namenode) GetFileInfo(req nnapi.GetFileInfoReq) (nnapi.GetFileInfoResp, error) {
	nn.mu.Lock()
	defer nn.mu.Unlock()
	f, ok := nn.ns.files[req.Path]
	if !ok {
		return nnapi.GetFileInfoResp{Exists: false}, nil
	}
	resp := nnapi.GetFileInfoResp{
		Exists:      true,
		Complete:    f.complete,
		Replication: f.replication,
		BlockSize:   f.blockSize,
	}
	for _, id := range f.blocks {
		if meta, ok := nn.ns.blocks[id]; ok {
			resp.Len += meta.cur.NumBytes
			resp.NumBlocks++
		}
	}
	return resp, nil
}

// ClusterInfo reports live cluster geometry.
func (nn *Namenode) ClusterInfo(nnapi.ClusterInfoReq) (nnapi.ClusterInfoResp, error) {
	nn.mu.Lock()
	defer nn.mu.Unlock()
	live, racks := nn.dm.liveGeometry(nn.clk.Now())
	return nnapi.ClusterInfoResp{
		ActiveDatanodes: live,
		Racks:           racks,
		SafeMode:        nn.checkSafeMode() != nil,
	}, nil
}

// --- DatanodeProtocol ---

// Register announces a datanode and ingests its block report.
func (nn *Namenode) Register(req nnapi.RegisterReq) (nnapi.RegisterResp, error) {
	nn.mu.Lock()
	defer nn.mu.Unlock()
	nn.dm.register(block.DatanodeInfo{Name: req.Name, Addr: req.Addr, Rack: req.Rack})
	for _, b := range req.Blocks {
		if err := nn.ns.blockReceived(req.Name, b); err != nil {
			// Unknown or stale replica: have the datanode delete it.
			nn.dm.scheduleInvalidate(req.Name, b.ID, b.Gen)
		}
	}
	return nnapi.RegisterResp{}, nil
}

// Heartbeat refreshes liveness and drains invalidation work.
func (nn *Namenode) Heartbeat(req nnapi.HeartbeatReq) (nnapi.HeartbeatResp, error) {
	nn.mu.Lock()
	defer nn.mu.Unlock()
	inv, known := nn.dm.heartbeat(req.Name)
	if !known {
		return nnapi.HeartbeatResp{}, fmt.Errorf("namenode: heartbeat from unregistered datanode %q", req.Name)
	}
	return nnapi.HeartbeatResp{
		Invalidate: inv,
		Replicate:  nn.replicationWorkFor(req.Name),
	}, nil
}

// blockReceivedOne ingests one finalized-replica report: record the
// location (or schedule deletion of a stale/unknown replica) and clear
// any pending re-replication.
func (nn *Namenode) blockReceivedOne(name string, b block.Block) error {
	if err := nn.ns.blockReceived(name, b); err != nil {
		nn.dm.scheduleInvalidate(name, b.ID, b.Gen)
		return err
	}
	delete(nn.repl.pending, b.ID)
	return nil
}

// BlockReceived records a finalized replica.
func (nn *Namenode) BlockReceived(req nnapi.BlockReceivedReq) (nnapi.BlockReceivedResp, error) {
	nn.mu.Lock()
	defer nn.mu.Unlock()
	if err := nn.blockReceivedOne(req.Name, req.Block); err != nil {
		return nnapi.BlockReceivedResp{}, err
	}
	return nnapi.BlockReceivedResp{}, nil
}

// BlockReceivedBatch ingests a datanode's delta block report: every
// replica finalized since the last report, in order, in one frame.
// Rejected entries (unknown block or stale generation) are counted and
// scheduled for deletion, exactly as the per-block RPC would.
func (nn *Namenode) BlockReceivedBatch(req nnapi.BlockReceivedBatchReq) (nnapi.BlockReceivedBatchResp, error) {
	nn.mu.Lock()
	defer nn.mu.Unlock()
	var resp nnapi.BlockReceivedBatchResp
	for _, b := range req.Blocks {
		if err := nn.blockReceivedOne(req.Name, b); err != nil {
			resp.Rejected++
		}
	}
	return resp, nil
}
