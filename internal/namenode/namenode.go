// Package namenode implements the cluster's metadata server: the
// namespace (files and blocks), datanode liveness tracking, replica
// placement — delegated to internal/policy, which covers both HDFS's
// topology policy and SMARTH's Algorithm 1 global optimization — and
// the RPC surface defined in package nnapi.
//
// Concurrency: one namesystem lock guards the namespace, the lease
// index and the block map (see namesystem.go), as Hadoop's FSNamesystem
// lock does; the datanode manager, replication manager, and balancer
// bookkeeping each have their own lock. The documented lock order is:
// namesystem → datanode manager → replication manager → nn.mu
// (balancer/admin); locks are only ever acquired left-to-right along
// that order.
package namenode

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
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
	clk      clock.Clock
	ns       *namesystem
	dm       *datanodeManager
	registry *core.Registry
	repl     *replicationManager
	rng      *rand.Rand

	// mu guards the server handle and balancerMoves (admin state); it is
	// last in the lock order and never held across other subsystems.
	mu sync.Mutex
	// balancerMoves tracks in-flight balancer transfers by block ID.
	balancerMoves map[block.ID]pendingMove
	server        *rpc.Server

	// heardMu guards clientHeard: when each client last sent a
	// clientHeartbeat, so the maintenance tick can forget the speed
	// records of clients that are gone (forgetSilentClients). A leaf
	// lock: only the registry's own is taken under it.
	heardMu     sync.Mutex
	clientHeard map[string]time.Time

	// safeMode blocks namespace mutations after a restart until enough
	// blocks have at least one reported replica (like HDFS startup).
	safeMode atomic.Bool

	// pol places every pipeline: client writes, recovery top-ups and
	// re-replication. view is what it sees of the cluster: one
	// placementView for the namenode's life, boxed once.
	pol  policy.Policy
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
	pol, _ := policy.New(policy.Default) // Default always resolves
	nn := &Namenode{
		clk:           clk,
		ns:            newNamesystem(),
		dm:            dm,
		registry:      registry,
		repl:          newReplicationManager(dm.expiry),
		rng:           rng,
		balancerMoves: make(map[block.ID]pendingMove),
		clientHeard:   make(map[string]time.Time),
		pol:           pol,
		view:          placementView{dm: dm, registry: registry},
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

// place runs one placement decision under the datanode manager's lock,
// so the policy observes a consistent topology (via nn.view) and the
// shared rng is race-free. Liveness is decided here, once, from one
// reading of the clock: every node the policy considers is judged
// against the same instant.
func (nn *Namenode) place(mode proto.WriteMode, client string, replication int, exclude []string) ([]block.DatanodeInfo, error) {
	dm := nn.dm
	dm.mu.Lock()
	defer dm.mu.Unlock()
	dm.placeable = dm.appendPlaceableLocked(dm.placeable[:0], nn.clk.Now())
	return nn.pol.Place(nn.view, policy.PlaceInput{
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

// Serve runs the RPC server on l until the listener closes.
func (nn *Namenode) Serve(l transport.Listener) {
	s := rpc.NewServer()
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
	serve(nn, s, nnapi.MethodDecommission, nn.Decommission)
	serve(nn, s, nnapi.MethodDecommStatus, nn.DecommissionStatus)
	serve(nn, s, nnapi.MethodBalance, nn.Balance)
	nn.mu.Lock()
	nn.server = s
	nn.mu.Unlock()
	s.Serve(l)
}

// Close stops the RPC server if Serve was called.
func (nn *Namenode) Close() {
	nn.mu.Lock()
	s := nn.server
	nn.mu.Unlock()
	if s != nil {
		s.Close()
	}
}

// --- ClientProtocol ---

// checkSafeMode recomputes and reports safe-mode state: the namenode
// leaves safe mode once every known block has at least one reported
// replica (or the namespace holds no blocks). The fast path is one
// atomic load; the block-map scan runs only while safe mode is still on.
func (nn *Namenode) checkSafeMode() error {
	if !nn.safeMode.Load() {
		return nil
	}
	if nn.ns.anyUnreportedBlock() {
		return ErrSafeMode
	}
	nn.safeMode.Store(false)
	return nil
}

// Create makes a new file in the namespace (write step 1).
func (nn *Namenode) Create(req nnapi.CreateReq) (nnapi.CreateResp, error) {
	if err := nn.checkSafeMode(); err != nil {
		return nnapi.CreateResp{}, err
	}
	stale, err := nn.ns.create(req.Path, req.Client, req.Replication, req.BlockSize, req.Overwrite, nn.clk.Now())
	if err != nil {
		return nnapi.CreateResp{}, err
	}
	nn.invalidate(stale)
	return nnapi.CreateResp{}, nil
}

// invalidate queues deletion of the replicas a removed file left on
// each datanode (delivered with the node's next heartbeat).
func (nn *Namenode) invalidate(stale map[string][]block.Block) {
	for dn, blocks := range stale {
		for _, b := range blocks {
			nn.dm.scheduleInvalidate(dn, b.ID, b.Gen)
		}
	}
}

// AddBlock allocates the file's next block and chooses its pipeline with
// the policy matching the requested write mode.
func (nn *Namenode) AddBlock(req nnapi.AddBlockReq) (nnapi.AddBlockResp, error) {
	if err := nn.checkSafeMode(); err != nil {
		return nnapi.AddBlockResp{}, err
	}
	b, targets, reused, err := nn.ns.addBlock(req.Path, req.Client, req.Previous, nn.clk.Now(),
		func(replication int) ([]block.DatanodeInfo, error) {
			return nn.place(req.Mode, req.Client, replication, req.Exclude)
		})
	if err != nil {
		return nnapi.AddBlockResp{}, err
	}
	if req.Mode == proto.ModeSmarth {
		nn.mPlaceSmarth.Inc()
	} else {
		nn.mPlaceDefault.Inc()
	}
	if !reused {
		nn.mBlocksAllocated.Inc()
	}
	return nnapi.AddBlockResp{Located: block.LocatedBlock{Block: b, Targets: targets}}, nil
}

// Complete finishes the file once every block is minimally replicated
// (write step 6). Done=false asks the client to retry shortly, matching
// HDFS's completeFile loop.
func (nn *Namenode) Complete(req nnapi.CompleteReq) (nnapi.CompleteResp, error) {
	done, err := nn.ns.complete(req.Path, req.Client)
	return nnapi.CompleteResp{Done: done}, err
}

// RecoverBlock re-provisions a failed pipeline: bump the generation
// stamp, schedule stale replicas for deletion, and build a fresh target
// list (surviving nodes first, then replacements chosen by placement).
func (nn *Namenode) RecoverBlock(req nnapi.RecoverBlockReq) (nnapi.RecoverBlockResp, error) {
	if err := nn.checkSafeMode(); err != nil {
		return nnapi.RecoverBlockResp{}, err
	}
	newBlock, targets, err := nn.ns.recoverBlock(req.Path, req.Client, req.Block, nn.clk.Now(),
		func(replication int, stale []string) ([]block.DatanodeInfo, error) {
			for _, dn := range stale {
				nn.dm.scheduleInvalidate(dn, req.Block.ID, req.Block.Gen)
			}
			// Keep the surviving datanodes (they already hold partial data
			// and proved reachable), then top up to the replication factor.
			targets := make([]block.DatanodeInfo, 0, replication)
			taken := make([]string, 0, len(req.Alive)+len(req.Exclude))
			taken = append(taken, req.Exclude...)
			aliveSet := make(map[string]bool)
			for _, n := range nn.dm.aliveNames() {
				aliveSet[n] = true
			}
			for _, name := range req.Alive {
				if info, ok := nn.dm.lookup(name); ok && aliveSet[name] && len(targets) < replication {
					targets = append(targets, info)
					taken = append(taken, name)
				}
			}
			if missing := replication - len(targets); missing > 0 {
				extra, err := nn.place(req.Mode, req.Client, missing, taken)
				if err != nil && len(targets) == 0 {
					return nil, fmt.Errorf("recover %v: %w", req.Block, err)
				}
				targets = append(targets, extra...)
			}
			return targets, nil
		})
	if err != nil {
		return nnapi.RecoverBlockResp{}, err
	}
	nn.mBlockRecoveries.Inc()
	return nnapi.RecoverBlockResp{Located: block.LocatedBlock{Block: newBlock, Targets: targets}}, nil
}

// ClientHeartbeat ingests a client's speed records (SMARTH §III-B) and
// renews the client's write leases (O(the client's open files), via the
// lease index).
func (nn *Namenode) ClientHeartbeat(req nnapi.ClientHeartbeatReq) (nnapi.ClientHeartbeatResp, error) {
	now := nn.clk.Now()
	nn.heardMu.Lock()
	nn.clientHeard[req.Client] = now
	nn.registry.Update(req.Client, req.Speeds)
	nn.heardMu.Unlock()
	nn.ns.renewLeases(req.Client, now)
	return nnapi.ClientHeartbeatResp{}, nil
}

// forgetSilentClients drops the speed records of every client that holds
// no lease and has not heartbeated for the lease timeout: a writer that
// finished or died is not coming back under that name (smarth-put names
// itself after its pid), and its table would otherwise stay for the life
// of the namenode. A client that returns later starts without records,
// as a new one does.
func (nn *Namenode) forgetSilentClients(now time.Time) {
	var silent []string
	nn.heardMu.Lock()
	for client, heard := range nn.clientHeard {
		if now.Sub(heard) >= DefaultLeaseTimeout {
			silent = append(silent, client)
		}
	}
	nn.heardMu.Unlock()
	for _, client := range silent {
		if nn.ns.holdsLease(client) { // namesystem lock: not under heardMu
			continue
		}
		nn.heardMu.Lock()
		// Looked up again: a heartbeat since the listing keeps its records.
		if now.Sub(nn.clientHeard[client]) >= DefaultLeaseTimeout {
			delete(nn.clientHeard, client)
			nn.registry.ForgetClient(client)
		}
		nn.heardMu.Unlock()
	}
}

// GetBlockLocations returns each block of a file with the datanodes known
// to hold finalized replicas. When the request names a client, holders
// are ordered by network distance from it (node-local, then rack-local,
// then remote), so readers prefer close replicas; otherwise the order is
// stable by name.
func (nn *Namenode) GetBlockLocations(req nnapi.GetBlockLocationsReq) (nnapi.GetBlockLocationsResp, error) {
	v, ok := nn.ns.fileInfo(req.Path)
	if !ok {
		return nnapi.GetBlockLocationsResp{}, fmt.Errorf("%w: %s", ErrFileNotFound, req.Path)
	}
	resp := nnapi.GetBlockLocationsResp{Len: v.length()}
	for _, b := range v.blocks {
		resp.Blocks = append(resp.Blocks, block.LocatedBlock{
			Block:   b.cur,
			Targets: nn.dm.orderedHolders(req.Client, b.holders),
		})
	}
	return resp, nil
}

// Delete removes a file and schedules every replica for deletion.
func (nn *Namenode) Delete(req nnapi.DeleteReq) (nnapi.DeleteResp, error) {
	if err := nn.checkSafeMode(); err != nil {
		return nnapi.DeleteResp{}, err
	}
	stale, existed := nn.ns.deleteFile(req.Path)
	nn.invalidate(stale)
	return nnapi.DeleteResp{Deleted: existed}, nil
}

// Rename moves a file in the namespace.
func (nn *Namenode) Rename(req nnapi.RenameReq) (nnapi.RenameResp, error) {
	if err := nn.checkSafeMode(); err != nil {
		return nnapi.RenameResp{}, err
	}
	return nnapi.RenameResp{}, nn.ns.rename(req.Src, req.Dst)
}

// List enumerates files under a path prefix with replication health.
func (nn *Namenode) List(req nnapi.ListReq) (nnapi.ListResp, error) {
	aliveSet := make(map[string]bool)
	for _, n := range nn.dm.aliveNames() {
		aliveSet[n] = true
	}
	var resp nnapi.ListResp
	for _, v := range nn.ns.list(req.Prefix) {
		st := nnapi.FileStatus{
			Path:            v.path,
			Replication:     v.replication,
			Complete:        v.complete,
			NumBlocks:       len(v.blocks),
			MinLiveReplicas: -1,
		}
		for _, b := range v.blocks {
			st.Len += b.cur.NumBytes
			live := 0
			for _, holder := range b.holders {
				if aliveSet[holder] {
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
	return resp, nil
}

// GetFileInfo reports file metadata.
func (nn *Namenode) GetFileInfo(req nnapi.GetFileInfoReq) (nnapi.GetFileInfoResp, error) {
	v, ok := nn.ns.fileInfo(req.Path)
	if !ok {
		return nnapi.GetFileInfoResp{Exists: false}, nil
	}
	return nnapi.GetFileInfoResp{
		Exists:      true,
		Complete:    v.complete,
		Len:         v.length(),
		Replication: v.replication,
		BlockSize:   v.blockSize,
		NumBlocks:   len(v.blocks),
	}, nil
}

// ClusterInfo reports live cluster geometry.
func (nn *Namenode) ClusterInfo(nnapi.ClusterInfoReq) (nnapi.ClusterInfoResp, error) {
	return nnapi.ClusterInfoResp{
		ActiveDatanodes: len(nn.dm.aliveNames()),
		Racks:           nn.dm.numRacks(),
		SafeMode:        nn.checkSafeMode() != nil,
	}, nil
}

// --- AdminProtocol ---

// Decommission starts (or cancels) draining a datanode: it is removed
// from placement immediately and its blocks get copied elsewhere by the
// replication scanner; it keeps serving reads and sourcing transfers.
func (nn *Namenode) Decommission(req nnapi.DecommissionReq) (nnapi.DecommissionResp, error) {
	if !nn.dm.setDecommissioning(req.Name, !req.Cancel) {
		return nnapi.DecommissionResp{}, fmt.Errorf("namenode: unknown datanode %q", req.Name)
	}
	// Kick the next scan so drain work starts on the next heartbeat.
	nn.repl.kick()
	return nnapi.DecommissionResp{}, nil
}

// DecommissionStatus reports how many blocks still depend on the node.
func (nn *Namenode) DecommissionStatus(req nnapi.DecommStatusReq) (nnapi.DecommStatusResp, error) {
	resp := nnapi.DecommStatusResp{Decommissioning: nn.dm.isDecommissioning(req.Name)}
	placeable := make(map[string]bool)
	for _, n := range nn.dm.placeableNames() {
		placeable[n] = true
	}
	nn.ns.forEachBlock(func(meta *blockMeta) {
		good := 0
		for holder := range meta.locations {
			if placeable[holder] {
				good++
			}
		}
		if meta.locations[req.Name] && good < meta.replication {
			resp.RemainingBlocks++
		}
	})
	resp.Done = resp.Decommissioning && resp.RemainingBlocks == 0
	return resp, nil
}

// --- DatanodeProtocol ---

// Register announces a datanode and ingests its block report.
func (nn *Namenode) Register(req nnapi.RegisterReq) (nnapi.RegisterResp, error) {
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
	inv, known := nn.dm.heartbeat(req.Name, req.UsedBytes)
	if !known {
		return nnapi.HeartbeatResp{}, fmt.Errorf("namenode: heartbeat from unregistered datanode %q", req.Name)
	}
	return nnapi.HeartbeatResp{
		Invalidate: inv,
		Replicate:  nn.replicationWorkFor(req.Name),
	}, nil
}

// blockReceivedOne ingests one finalized-replica report: record the
// location (or schedule deletion of a stale/unknown replica), clear any
// pending re-replication, and complete a balancer move it may finish.
func (nn *Namenode) blockReceivedOne(name string, b block.Block) error {
	if err := nn.ns.blockReceived(name, b); err != nil {
		nn.dm.scheduleInvalidate(name, b.ID, b.Gen)
		return err
	}
	nn.repl.satisfied(b.ID)
	nn.completeBalancerMove(name, b)
	return nil
}

// BlockReceived records a finalized replica.
func (nn *Namenode) BlockReceived(req nnapi.BlockReceivedReq) (nnapi.BlockReceivedResp, error) {
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
	var resp nnapi.BlockReceivedBatchResp
	for _, b := range req.Blocks {
		if err := nn.blockReceivedOne(req.Name, b); err != nil {
			resp.Rejected++
		}
	}
	return resp, nil
}
