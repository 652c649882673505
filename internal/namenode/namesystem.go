package namenode

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/block"
)

// Namespace errors.
var (
	// ErrFileExists reports a create (or rename destination) over an
	// existing path without Overwrite.
	ErrFileExists = errors.New("namenode: file already exists")
	// ErrFileNotFound reports an operation on a path with no inode.
	ErrFileNotFound = errors.New("namenode: file not found")
	// ErrLeaseViolation reports a write operation by a client that does
	// not hold the file's lease.
	ErrLeaseViolation = errors.New("namenode: file is leased by another client")
	// ErrFileComplete reports a write operation on a finalized file.
	ErrFileComplete = errors.New("namenode: file is already complete")
	// ErrUnknownBlock reports an operation on a block ID the block manager
	// does not track.
	ErrUnknownBlock = errors.New("namenode: unknown block")
	// ErrStaleGeneration reports a replica whose generation stamp predates
	// the block's current one (a pre-recovery leftover).
	ErrStaleGeneration = errors.New("namenode: stale block generation")
	// ErrSafeMode reports a namespace mutation attempted before block
	// reports re-established replica locations after a restart.
	ErrSafeMode = errors.New("namenode: in safe mode (block reports still incomplete)")
)

// fileInode is one entry in the namespace, guarded by the namesystem
// lock.
type fileInode struct {
	path        string
	blocks      []block.ID
	replication int
	blockSize   int64
	client      string // lease holder while under construction
	complete    bool
	// renewed is when the lease holder last showed a sign of life
	// (create, addBlock, recoverBlock or a client heartbeat).
	renewed time.Time
}

// blockMeta is the block manager's record for one block, guarded by the
// namesystem lock.
type blockMeta struct {
	cur       block.Block // authoritative generation and committed length
	path      string
	locations map[string]bool // datanode name -> holds a finalized replica
	// replication and complete mirror the owning file so the replication
	// sweep can judge a block from the block map alone, without chasing
	// its inode. replication is fixed at allocation; complete flips once,
	// when the file completes.
	replication int
	complete    bool
}

// namesystem is the namespace plus block manager under one lock, as in
// Hadoop's FSNamesystem: mu guards the file map, the per-client lease
// index, the block map and the ID and generation counters. Each method
// takes mu once and works through *Locked helpers, so every answer is
// one point in time. Lock order (DESIGN.md §12): namesystem → datanode
// manager → replication manager → nn.mu; callbacks run under mu may take
// the later locks but never call back into the namesystem.
type namesystem struct {
	mu    sync.Mutex
	files map[string]*fileInode
	// leases indexes under-construction files by lease holder (client ->
	// path -> inode), so lease renewal and expiry never scan completed
	// files.
	leases    map[string]map[string]*fileInode
	blocks    map[block.ID]*blockMeta
	nextBlock int64
	nextGen   uint64
}

func newNamesystem() *namesystem {
	return &namesystem{
		files:  make(map[string]*fileInode),
		leases: make(map[string]map[string]*fileInode),
		blocks: make(map[block.ID]*blockMeta),
	}
}

// --- lease index ---

func (ns *namesystem) addLeaseLocked(f *fileInode) {
	byPath := ns.leases[f.client]
	if byPath == nil {
		byPath = make(map[string]*fileInode)
		ns.leases[f.client] = byPath
	}
	byPath[f.path] = f
}

func (ns *namesystem) dropLeaseLocked(client, path string) {
	if byPath := ns.leases[client]; byPath != nil {
		delete(byPath, path)
		if len(byPath) == 0 {
			delete(ns.leases, client)
		}
	}
}

// --- namespace operations ---

// create makes a new inode and records its lease, renewed as of now.
// Overwrite replaces an existing file; stale then lists, per datanode,
// the replaced file's replicas for the caller to invalidate.
func (ns *namesystem) create(path, client string, replication int, blockSize int64, overwrite bool, now time.Time) (stale map[string][]block.Block, err error) {
	if replication < 1 {
		replication = 1
	}
	if blockSize <= 0 {
		return nil, fmt.Errorf("namenode: invalid block size %d", blockSize)
	}
	ns.mu.Lock()
	defer ns.mu.Unlock()
	if old, exists := ns.files[path]; exists {
		if !overwrite {
			return nil, fmt.Errorf("%w: %s", ErrFileExists, path)
		}
		stale = ns.removeInodeLocked(old)
	}
	f := &fileInode{
		path:        path,
		replication: replication,
		blockSize:   blockSize,
		client:      client,
		renewed:     now,
	}
	ns.files[path] = f
	ns.addLeaseLocked(f)
	return stale, nil
}

// removeInodeLocked drops f and its blocks, returning for each datanode
// the replicas it held (so the caller can schedule invalidations).
func (ns *namesystem) removeInodeLocked(f *fileInode) map[string][]block.Block {
	stale := make(map[string][]block.Block)
	for _, id := range f.blocks {
		if meta, ok := ns.blocks[id]; ok {
			for dn := range meta.locations {
				stale[dn] = append(stale[dn], meta.cur)
			}
		}
		delete(ns.blocks, id)
	}
	delete(ns.files, f.path)
	if !f.complete {
		ns.dropLeaseLocked(f.client, f.path)
	}
	return stale
}

// checkLeaseLocked fetches an under-construction file owned by client.
func (ns *namesystem) checkLeaseLocked(path, client string) (*fileInode, error) {
	f, ok := ns.files[path]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrFileNotFound, path)
	}
	if f.complete {
		return nil, fmt.Errorf("%w: %s", ErrFileComplete, path)
	}
	if f.client != client {
		return nil, fmt.Errorf("%w: %s held by %q, requested by %q", ErrLeaseViolation, path, f.client, client)
	}
	return f, nil
}

// addBlock performs the locked portion of an addBlock RPC: lease check,
// lease renewal, placement (via choose, which runs under the namesystem
// lock and may take the datanode manager's lock), and the allocation
// itself — reusing an orphaned tail from a retried request when prev
// identifies one. reused reports whether the returned block is such a
// tail.
func (ns *namesystem) addBlock(path, client string, prev block.Block, now time.Time,
	choose func(replication int) ([]block.DatanodeInfo, error)) (b block.Block, targets []block.DatanodeInfo, reused bool, err error) {
	ns.mu.Lock()
	defer ns.mu.Unlock()
	f, err := ns.checkLeaseLocked(path, client)
	if err != nil {
		return block.Block{}, nil, false, err
	}
	f.renewed = now
	targets, err = choose(f.replication)
	if err != nil {
		return block.Block{}, nil, false, err
	}
	if tail, ok := ns.reusableTailLocked(f, prev); ok {
		return tail, targets, true, nil
	}
	return ns.allocateBlockLocked(f), targets, false, nil
}

// allocateBlockLocked appends a fresh block to the file.
func (ns *namesystem) allocateBlockLocked(f *fileInode) block.Block {
	ns.nextBlock++
	ns.nextGen++
	b := block.Block{ID: block.ID(ns.nextBlock), Gen: block.GenStamp(ns.nextGen)}
	f.blocks = append(f.blocks, b.ID)
	ns.blocks[b.ID] = &blockMeta{
		cur:         b,
		path:        f.path,
		locations:   make(map[string]bool),
		replication: f.replication,
	}
	return b
}

// reusableTailLocked detects a retried addBlock: prev is the last block
// the client acknowledges having been granted. If the file's tail is a
// different block that holds no data and no finalized replicas, it was
// allocated by an earlier attempt of this very request whose response
// the client never saw (a timed-out RPC the namenode still executed),
// so it is handed back for reuse instead of orphaning it.
func (ns *namesystem) reusableTailLocked(f *fileInode, prev block.Block) (block.Block, bool) {
	if len(f.blocks) == 0 {
		return block.Block{}, false
	}
	meta := ns.blocks[f.blocks[len(f.blocks)-1]]
	if meta == nil || meta.cur.ID == prev.ID || len(meta.locations) > 0 || meta.cur.NumBytes > 0 {
		return block.Block{}, false
	}
	return meta.cur, true
}

// blockReceived records a finalized replica. Replicas with a stale
// generation are rejected (the datanode will be told to delete them).
func (ns *namesystem) blockReceived(dn string, b block.Block) error {
	ns.mu.Lock()
	defer ns.mu.Unlock()
	meta, ok := ns.blocks[b.ID]
	if !ok {
		return fmt.Errorf("%w: %v", ErrUnknownBlock, b)
	}
	if b.Gen != meta.cur.Gen {
		return fmt.Errorf("%w: %v reported gen %d, current %d", ErrStaleGeneration, b, b.Gen, meta.cur.Gen)
	}
	meta.locations[dn] = true
	if b.NumBytes > meta.cur.NumBytes {
		meta.cur.NumBytes = b.NumBytes
	}
	return nil
}

// recoverBlock bumps the block's generation stamp, forgets replica
// locations recorded under the old generation (surviving datanodes will
// re-report after the client re-streams), and rebuilds the pipeline via
// retarget, which runs under the namesystem lock with the stale holder
// list.
func (ns *namesystem) recoverBlock(path, client string, b block.Block, now time.Time,
	retarget func(replication int, stale []string) ([]block.DatanodeInfo, error)) (block.Block, []block.DatanodeInfo, error) {
	ns.mu.Lock()
	defer ns.mu.Unlock()
	f, err := ns.checkLeaseLocked(path, client)
	if err != nil {
		return block.Block{}, nil, err
	}
	f.renewed = now
	meta, ok := ns.blocks[b.ID]
	if !ok || meta.path != f.path {
		return block.Block{}, nil, fmt.Errorf("%w: %v", ErrUnknownBlock, b)
	}
	stale := sortedHolders(meta)
	ns.nextGen++
	meta.cur.Gen = block.GenStamp(ns.nextGen)
	meta.cur.NumBytes = 0
	meta.locations = make(map[string]bool)
	targets, err := retarget(f.replication, stale)
	if err != nil {
		return block.Block{}, nil, err
	}
	return meta.cur, targets, nil
}

// complete finalizes the file when every block has at least one
// finalized replica (HDFS's minimal-replication rule).
func (ns *namesystem) complete(path, client string) (bool, error) {
	ns.mu.Lock()
	defer ns.mu.Unlock()
	f, err := ns.checkLeaseLocked(path, client)
	if err != nil {
		if errors.Is(err, ErrFileComplete) {
			return true, nil // idempotent completion
		}
		return false, err
	}
	for _, id := range f.blocks {
		if meta := ns.blocks[id]; meta == nil || len(meta.locations) == 0 {
			return false, nil
		}
	}
	f.complete = true
	ns.dropLeaseLocked(f.client, f.path)
	f.client = ""
	// Mirror completion onto the block metas so the replication sweep
	// starts watching these blocks.
	for _, id := range f.blocks {
		ns.blocks[id].complete = true
	}
	return true, nil
}

// sortedHolders lists the datanodes holding a finalized replica of the
// block, by name.
func sortedHolders(meta *blockMeta) []string {
	holders := make([]string, 0, len(meta.locations))
	for dn := range meta.locations {
		holders = append(holders, dn)
	}
	sort.Strings(holders)
	return holders
}

// dropLocation forgets one replica holder of a block (balancer
// copy-then-delete completion).
func (ns *namesystem) dropLocation(id block.ID, dn string) {
	ns.mu.Lock()
	if meta, ok := ns.blocks[id]; ok {
		delete(meta.locations, dn)
	}
	ns.mu.Unlock()
}

// deleteFile removes a file, returning for each datanode the replicas
// it held (so the caller can schedule invalidations). It reports whether
// the file existed.
func (ns *namesystem) deleteFile(path string) (stale map[string][]block.Block, existed bool) {
	ns.mu.Lock()
	defer ns.mu.Unlock()
	f, ok := ns.files[path]
	if !ok {
		return nil, false
	}
	return ns.removeInodeLocked(f), true
}

// rename moves a file, and its lease if it is under construction. The
// destination must not exist.
func (ns *namesystem) rename(src, dst string) error {
	ns.mu.Lock()
	defer ns.mu.Unlock()
	f, ok := ns.files[src]
	if !ok {
		return fmt.Errorf("%w: %s", ErrFileNotFound, src)
	}
	if _, exists := ns.files[dst]; exists {
		return fmt.Errorf("%w: %s", ErrFileExists, dst)
	}
	delete(ns.files, src)
	if !f.complete {
		ns.dropLeaseLocked(f.client, src)
	}
	f.path = dst
	ns.files[dst] = f
	if !f.complete {
		ns.addLeaseLocked(f)
	}
	for _, id := range f.blocks {
		if meta, ok := ns.blocks[id]; ok {
			meta.path = dst
		}
	}
	return nil
}

// blockView is a copied snapshot of one block: its current generation
// and committed length, and its holders sorted by name.
type blockView struct {
	cur     block.Block
	holders []string
}

// fileView is a copied snapshot of an inode and its blocks, taken in one
// critical section and safe to use after the lock is released.
type fileView struct {
	path        string
	replication int
	blockSize   int64
	complete    bool
	blocks      []blockView
}

// length sums the file's committed block lengths.
func (v *fileView) length() int64 {
	var total int64
	for _, b := range v.blocks {
		total += b.cur.NumBytes
	}
	return total
}

func (ns *namesystem) viewOfLocked(f *fileInode) fileView {
	v := fileView{
		path:        f.path,
		replication: f.replication,
		blockSize:   f.blockSize,
		complete:    f.complete,
		blocks:      make([]blockView, 0, len(f.blocks)),
	}
	for _, id := range f.blocks {
		if meta, ok := ns.blocks[id]; ok {
			v.blocks = append(v.blocks, blockView{cur: meta.cur, holders: sortedHolders(meta)})
		}
	}
	return v
}

// fileInfo snapshots one file and its blocks.
func (ns *namesystem) fileInfo(path string) (fileView, bool) {
	ns.mu.Lock()
	defer ns.mu.Unlock()
	f, ok := ns.files[path]
	if !ok {
		return fileView{}, false
	}
	return ns.viewOfLocked(f), true
}

// list snapshots the files under a path prefix, sorted by path, all as
// of one instant: a concurrent rename is listed at its source or at its
// destination, never at both or neither.
func (ns *namesystem) list(prefix string) []fileView {
	ns.mu.Lock()
	var out []fileView
	for path, f := range ns.files {
		if strings.HasPrefix(path, prefix) {
			out = append(out, ns.viewOfLocked(f))
		}
	}
	ns.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].path < out[j].path })
	return out
}

// forEachBlock runs fn for every block under the namesystem lock. fn
// may take the datanode manager's, the replication manager's or nn.mu
// (the documented lock order) but must not call back into the
// namesystem.
func (ns *namesystem) forEachBlock(fn func(meta *blockMeta)) {
	ns.mu.Lock()
	defer ns.mu.Unlock()
	for _, meta := range ns.blocks {
		fn(meta)
	}
}

// renewLeases refreshes every under-construction file held by client.
// The lease index makes this O(files the client is writing), not
// O(namespace) — the scan that made client heartbeats the namenode's
// most expensive RPC under load.
func (ns *namesystem) renewLeases(client string, now time.Time) {
	ns.mu.Lock()
	for _, f := range ns.leases[client] {
		f.renewed = now
	}
	ns.mu.Unlock()
}

// holdsLease reports whether client is writing any file.
func (ns *namesystem) holdsLease(client string) bool {
	ns.mu.Lock()
	defer ns.mu.Unlock()
	return len(ns.leases[client]) > 0
}

// recoverExpired force-finalizes files whose writer has been silent
// longer than timeout: blocks that never got a finalized replica are
// dropped (the dead client's unflushed tail), the rest are kept, and the
// file completes so other clients can use it. The lease index bounds the
// scan to under-construction files only.
func (ns *namesystem) recoverExpired(now time.Time, timeout time.Duration) {
	ns.mu.Lock()
	defer ns.mu.Unlock()
	var expired []*fileInode
	for _, byPath := range ns.leases {
		for _, f := range byPath {
			if now.Sub(f.renewed) > timeout {
				expired = append(expired, f)
			}
		}
	}
	sort.Slice(expired, func(i, j int) bool { return expired[i].path < expired[j].path })
	for _, f := range expired {
		ns.recoverLeaseLocked(f)
	}
}

// recoverLeaseLocked finalizes one abandoned file.
func (ns *namesystem) recoverLeaseLocked(f *fileInode) {
	kept := f.blocks[:0]
	for _, id := range f.blocks {
		if meta := ns.blocks[id]; meta != nil && len(meta.locations) > 0 {
			meta.complete = true
			kept = append(kept, id)
			continue
		}
		delete(ns.blocks, id)
	}
	f.blocks = kept
	ns.dropLeaseLocked(f.client, f.path)
	f.complete = true
	f.client = ""
}

// anyUnreportedBlock reports whether some block still has zero reported
// replicas — the safe-mode exit condition after a restart.
func (ns *namesystem) anyUnreportedBlock() bool {
	ns.mu.Lock()
	defer ns.mu.Unlock()
	for _, meta := range ns.blocks {
		if len(meta.locations) == 0 {
			return true
		}
	}
	return false
}

// underReplicated sweeps the block manager for complete blocks whose
// placeable-replica count is below their replication factor, invoking
// visit for each, in block-ID order, with a copy of its holder set
// (sorted). The sweep walks the block map once with no per-block work
// beyond map lookups — healthy blocks cost a few probes of placeable —
// and visit (which takes the datanode-manager and replication locks)
// runs after the namesystem lock is released.
func (ns *namesystem) underReplicated(placeable map[string]bool, visit func(cur block.Block, holders []string, missing int)) {
	type cand struct {
		cur     block.Block
		holders []string
		missing int
	}
	var cands []cand
	ns.mu.Lock()
	for _, meta := range ns.blocks {
		if !meta.complete {
			continue // under-construction blocks are the writer's job
		}
		good := 0
		for dn := range meta.locations {
			if placeable[dn] {
				good++
			}
		}
		if good >= meta.replication || len(meta.locations) == 0 {
			continue
		}
		cands = append(cands, cand{cur: meta.cur, holders: sortedHolders(meta), missing: meta.replication - good})
	}
	ns.mu.Unlock()
	sort.Slice(cands, func(i, j int) bool { return cands[i].cur.ID < cands[j].cur.ID })
	for _, c := range cands {
		visit(c.cur, c.holders, c.missing)
	}
}
