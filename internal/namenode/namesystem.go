package namenode

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/block"
	"repro/internal/obs"
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

// DefaultShards is the number of namespace shards (and block stripes).
// Shard routing hashes the parent directory, so files in one directory
// share a shard while independent directories proceed in parallel; see
// DESIGN.md §12.
const DefaultShards = 16

// fileInode is one entry in the namespace. Its fields are guarded by the
// shard that owns its path.
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
// stripe that owns its ID.
type blockMeta struct {
	cur       block.Block // authoritative generation and committed length
	path      string
	locations map[string]bool // datanode name -> holds a finalized replica
	// replication and complete mirror the owning file so the replication
	// sweep can judge a block from its stripe alone, without chasing the
	// inode across a shard lock. replication is fixed at allocation;
	// complete flips once, when the file completes.
	replication int
	complete    bool
}

// nsShard holds one hash slice of the namespace: the inodes plus a lease
// index (client -> path -> inode, under-construction files only) so
// lease renewal and expiry never scan completed files.
type nsShard struct {
	mu     sync.Mutex
	files  map[string]*fileInode
	leases map[string]map[string]*fileInode
}

// blockStripe holds one hash slice of the block manager. Block state
// transitions (received replicas, generation bumps) touch only a stripe,
// so datanode reports never contend with namespace operations.
type blockStripe struct {
	mu     sync.Mutex
	blocks map[block.ID]*blockMeta
}

// namesystem is the namespace plus block manager, sharded for
// concurrency. Shard routing is a pure hash — no lock guards the shard
// table itself — and every method locks only the shards/stripes it
// touches. Lock order (see DESIGN.md §12): a shard may be held while
// acquiring a stripe, the datanode manager, or the replication manager;
// never the reverse. At most one stripe is held at a time.
type namesystem struct {
	shards  []*nsShard
	stripes []*blockStripe
	// nextBlock and nextGen are global atomic counters, so allocation
	// never serializes on a shard.
	nextBlock atomic.Int64
	nextGen   atomic.Uint64
	// contention counts failed TryLocks on shards and stripes (nil-safe).
	contention *obs.Counter
}

// newNamesystem builds a namesystem with the given shard count, rounded
// up to a power of two (minimum 1). contention may be nil.
func newNamesystem(shardCount int, contention *obs.Counter) *namesystem {
	n := 1
	for n < shardCount {
		n <<= 1
	}
	ns := &namesystem{
		shards:     make([]*nsShard, n),
		stripes:    make([]*blockStripe, n),
		contention: contention,
	}
	for i := range ns.shards {
		ns.shards[i] = &nsShard{
			files:  make(map[string]*fileInode),
			leases: make(map[string]map[string]*fileInode),
		}
		ns.stripes[i] = &blockStripe{blocks: make(map[block.ID]*blockMeta)}
	}
	return ns
}

// parentDir returns the directory prefix of path (up to the last '/'),
// the shard-routing key: files in one directory stay on one shard.
func parentDir(path string) string {
	if i := strings.LastIndexByte(path, '/'); i > 0 {
		return path[:i]
	}
	return "/"
}

// fnv1a is the 32-bit FNV-1a hash, inlined so shard routing never
// allocates a hash.Hash.
func fnv1a(s string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
}

func (ns *namesystem) shardFor(path string) *nsShard {
	return ns.shards[fnv1a(parentDir(path))&uint32(len(ns.shards)-1)]
}

func (ns *namesystem) stripeFor(id block.ID) *blockStripe {
	return ns.stripes[uint32(id)&uint32(len(ns.stripes)-1)]
}

// lockShard acquires s.mu, counting the acquisition as contended when a
// TryLock fails first (the shard-contention signal in obs).
func (ns *namesystem) lockShard(s *nsShard) {
	if s.mu.TryLock() {
		return
	}
	ns.contention.Inc()
	s.mu.Lock()
}

func (ns *namesystem) lockStripe(st *blockStripe) {
	if st.mu.TryLock() {
		return
	}
	ns.contention.Inc()
	st.mu.Lock()
}

// --- lease index (per shard, caller holds the shard lock) ---

func (s *nsShard) addLeaseLocked(f *fileInode) {
	byPath := s.leases[f.client]
	if byPath == nil {
		byPath = make(map[string]*fileInode)
		s.leases[f.client] = byPath
	}
	byPath[f.path] = f
}

func (s *nsShard) dropLeaseLocked(client, path string) {
	if byPath := s.leases[client]; byPath != nil {
		delete(byPath, path)
		if len(byPath) == 0 {
			delete(s.leases, client)
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
	s := ns.shardFor(path)
	ns.lockShard(s)
	defer s.mu.Unlock()
	if old, exists := s.files[path]; exists {
		if !overwrite {
			return nil, fmt.Errorf("%w: %s", ErrFileExists, path)
		}
		stale = ns.removeInodeLocked(s, old)
	}
	f := &fileInode{
		path:        path,
		replication: replication,
		blockSize:   blockSize,
		client:      client,
		renewed:     now,
	}
	s.files[path] = f
	s.addLeaseLocked(f)
	return stale, nil
}

// removeInodeLocked drops f and its blocks, returning for each datanode
// the replicas it held (so the caller can schedule invalidations).
// Caller holds f's shard.
func (ns *namesystem) removeInodeLocked(s *nsShard, f *fileInode) map[string][]block.Block {
	stale := make(map[string][]block.Block)
	for _, id := range f.blocks {
		st := ns.stripeFor(id)
		ns.lockStripe(st)
		if meta, ok := st.blocks[id]; ok {
			for dn := range meta.locations {
				stale[dn] = append(stale[dn], meta.cur)
			}
		}
		delete(st.blocks, id)
		st.mu.Unlock()
	}
	delete(s.files, f.path)
	if !f.complete {
		s.dropLeaseLocked(f.client, f.path)
	}
	return stale
}

// checkLeaseLocked fetches an under-construction file owned by client.
// Caller holds the path's shard.
func (s *nsShard) checkLeaseLocked(path, client string) (*fileInode, error) {
	f, ok := s.files[path]
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
// lease renewal, placement (via choose, which runs under the shard lock
// and may take the datanode manager's lock), and the allocation itself —
// reusing an orphaned tail from a retried request when prev identifies
// one. reused reports whether the returned block is such a tail.
func (ns *namesystem) addBlock(path, client string, prev block.Block, now time.Time,
	choose func(replication int) ([]block.DatanodeInfo, error)) (b block.Block, targets []block.DatanodeInfo, reused bool, err error) {
	s := ns.shardFor(path)
	ns.lockShard(s)
	defer s.mu.Unlock()
	f, err := s.checkLeaseLocked(path, client)
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

// allocateBlockLocked appends a fresh block to the file. Caller holds
// f's shard.
func (ns *namesystem) allocateBlockLocked(f *fileInode) block.Block {
	b := block.Block{
		ID:  block.ID(ns.nextBlock.Add(1)),
		Gen: block.GenStamp(ns.nextGen.Add(1)),
	}
	f.blocks = append(f.blocks, b.ID)
	st := ns.stripeFor(b.ID)
	ns.lockStripe(st)
	st.blocks[b.ID] = &blockMeta{
		cur:         b,
		path:        f.path,
		locations:   make(map[string]bool),
		replication: f.replication,
	}
	st.mu.Unlock()
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
	id := f.blocks[len(f.blocks)-1]
	st := ns.stripeFor(id)
	ns.lockStripe(st)
	defer st.mu.Unlock()
	meta := st.blocks[id]
	if meta == nil || meta.cur.ID == prev.ID || len(meta.locations) > 0 || meta.cur.NumBytes > 0 {
		return block.Block{}, false
	}
	return meta.cur, true
}

// blockReceived records a finalized replica. Replicas with a stale
// generation are rejected (the datanode will be told to delete them).
// It touches only the block's stripe, so concurrent reports from many
// datanodes never contend with namespace operations.
func (ns *namesystem) blockReceived(dn string, b block.Block) error {
	st := ns.stripeFor(b.ID)
	ns.lockStripe(st)
	defer st.mu.Unlock()
	meta, ok := st.blocks[b.ID]
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
// retarget, which runs under the shard lock with the stale holder list.
func (ns *namesystem) recoverBlock(path, client string, b block.Block, now time.Time,
	retarget func(replication int, stale []string) ([]block.DatanodeInfo, error)) (block.Block, []block.DatanodeInfo, error) {
	s := ns.shardFor(path)
	ns.lockShard(s)
	defer s.mu.Unlock()
	f, err := s.checkLeaseLocked(path, client)
	if err != nil {
		return block.Block{}, nil, err
	}
	f.renewed = now

	st := ns.stripeFor(b.ID)
	ns.lockStripe(st)
	meta, ok := st.blocks[b.ID]
	if !ok || meta.path != f.path {
		st.mu.Unlock()
		return block.Block{}, nil, fmt.Errorf("%w: %v", ErrUnknownBlock, b)
	}
	stale := make([]string, 0, len(meta.locations))
	for dn := range meta.locations {
		stale = append(stale, dn)
	}
	sort.Strings(stale)
	meta.cur.Gen = block.GenStamp(ns.nextGen.Add(1))
	meta.cur.NumBytes = 0
	meta.locations = make(map[string]bool)
	newBlock := meta.cur
	st.mu.Unlock()

	targets, err := retarget(f.replication, stale)
	if err != nil {
		return block.Block{}, nil, err
	}
	return newBlock, targets, nil
}

// complete finalizes the file when every block has at least one
// finalized replica (HDFS's minimal-replication rule).
func (ns *namesystem) complete(path, client string) (bool, error) {
	s := ns.shardFor(path)
	ns.lockShard(s)
	defer s.mu.Unlock()
	f, err := s.checkLeaseLocked(path, client)
	if err != nil {
		if errors.Is(err, ErrFileComplete) {
			return true, nil // idempotent completion
		}
		return false, err
	}
	for _, id := range f.blocks {
		if n, _, ok := ns.replicaCount(id); !ok || n == 0 {
			return false, nil
		}
	}
	f.complete = true
	s.dropLeaseLocked(f.client, f.path)
	f.client = ""
	// Mirror completion onto the block metas so the replication sweep
	// starts watching these blocks (one stripe at a time; shard → stripe
	// is the documented order).
	for _, id := range f.blocks {
		st := ns.stripeFor(id)
		ns.lockStripe(st)
		if meta, found := st.blocks[id]; found {
			meta.complete = true
		}
		st.mu.Unlock()
	}
	return true, nil
}

// replicaCount reports a block's finalized-replica count and committed
// length (stripe-locked internally).
func (ns *namesystem) replicaCount(id block.ID) (replicas int, bytes int64, ok bool) {
	st := ns.stripeFor(id)
	ns.lockStripe(st)
	defer st.mu.Unlock()
	meta, found := st.blocks[id]
	if !found {
		return 0, 0, false
	}
	return len(meta.locations), meta.cur.NumBytes, true
}

// blockView snapshots one block's state: current block (generation and
// committed length), owning path, and sorted holder names.
func (ns *namesystem) blockView(id block.ID) (cur block.Block, path string, holders []string, ok bool) {
	st := ns.stripeFor(id)
	ns.lockStripe(st)
	defer st.mu.Unlock()
	meta, found := st.blocks[id]
	if !found {
		return block.Block{}, "", nil, false
	}
	holders = make([]string, 0, len(meta.locations))
	for dn := range meta.locations {
		holders = append(holders, dn)
	}
	sort.Strings(holders)
	return meta.cur, meta.path, holders, true
}

// dropLocation forgets one replica holder of a block (balancer
// copy-then-delete completion).
func (ns *namesystem) dropLocation(id block.ID, dn string) {
	st := ns.stripeFor(id)
	ns.lockStripe(st)
	if meta, ok := st.blocks[id]; ok {
		delete(meta.locations, dn)
	}
	st.mu.Unlock()
}

// fileLengthLocked sums committed block lengths. Caller holds f's shard.
func (ns *namesystem) fileLengthLocked(f *fileInode) int64 {
	var total int64
	for _, id := range f.blocks {
		_, bytes, _ := ns.replicaCount(id)
		total += bytes
	}
	return total
}

// deleteFile removes a file, returning for each datanode the replicas
// it held (so the caller can schedule invalidations). It reports whether
// the file existed.
func (ns *namesystem) deleteFile(path string) (stale map[string][]block.Block, existed bool) {
	s := ns.shardFor(path)
	ns.lockShard(s)
	defer s.mu.Unlock()
	f, ok := s.files[path]
	if !ok {
		return nil, false
	}
	return ns.removeInodeLocked(s, f), true
}

// rename moves a file. The destination must not exist. When source and
// destination hash to different shards, both are locked in index order
// so concurrent cross-shard renames cannot deadlock. This is the one
// sanctioned double-shard acquisition (DESIGN.md §12).
//
//smarth:multi-shard
func (ns *namesystem) rename(src, dst string) error {
	ss, ds := ns.shardFor(src), ns.shardFor(dst)
	if ss == ds {
		ns.lockShard(ss)
		defer ss.mu.Unlock()
	} else {
		first, second := ss, ds
		if ns.shardIndex(ds) < ns.shardIndex(ss) {
			first, second = ds, ss
		}
		ns.lockShard(first)
		defer first.mu.Unlock()
		ns.lockShard(second)
		defer second.mu.Unlock()
	}
	f, ok := ss.files[src]
	if !ok {
		return fmt.Errorf("%w: %s", ErrFileNotFound, src)
	}
	if _, exists := ds.files[dst]; exists {
		return fmt.Errorf("%w: %s", ErrFileExists, dst)
	}
	delete(ss.files, src)
	if !f.complete {
		ss.dropLeaseLocked(f.client, src)
	}
	f.path = dst
	ds.files[dst] = f
	if !f.complete {
		ds.addLeaseLocked(f)
	}
	for _, id := range f.blocks {
		st := ns.stripeFor(id)
		ns.lockStripe(st)
		if meta, ok := st.blocks[id]; ok {
			meta.path = dst
		}
		st.mu.Unlock()
	}
	return nil
}

func (ns *namesystem) shardIndex(s *nsShard) int {
	for i, cand := range ns.shards {
		if cand == s {
			return i
		}
	}
	return -1
}

// fileView is a copied snapshot of an inode, safe to use after the shard
// lock is released.
type fileView struct {
	path        string
	client      string
	replication int
	blockSize   int64
	complete    bool
	blocks      []block.ID
}

func viewOfLocked(f *fileInode) fileView {
	return fileView{
		path:        f.path,
		client:      f.client,
		replication: f.replication,
		blockSize:   f.blockSize,
		complete:    f.complete,
		blocks:      append([]block.ID(nil), f.blocks...),
	}
}

// fileInfo snapshots one file (plus its committed length).
func (ns *namesystem) fileInfo(path string) (fileView, int64, bool) {
	s := ns.shardFor(path)
	ns.lockShard(s)
	defer s.mu.Unlock()
	f, ok := s.files[path]
	if !ok {
		return fileView{}, 0, false
	}
	return viewOfLocked(f), ns.fileLengthLocked(f), true
}

// list returns snapshots of files under a path prefix, sorted by path.
func (ns *namesystem) list(prefix string) []fileView {
	var out []fileView
	for _, s := range ns.shards {
		ns.lockShard(s)
		for path, f := range s.files {
			if strings.HasPrefix(path, prefix) {
				out = append(out, viewOfLocked(f))
			}
		}
		s.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].path < out[j].path })
	return out
}

// forEachFile runs fn for every inode, shard by shard, under that
// shard's lock. fn may take stripe, datanode-manager, or
// replication-manager locks (the documented lock order), but must not
// touch other shards.
func (ns *namesystem) forEachFile(fn func(f *fileInode)) {
	for _, s := range ns.shards {
		ns.lockShard(s)
		for _, f := range s.files {
			fn(f)
		}
		s.mu.Unlock()
	}
}

// fileCount reports how many inodes exist across all shards.
func (ns *namesystem) fileCount() int {
	n := 0
	for _, s := range ns.shards {
		ns.lockShard(s)
		n += len(s.files)
		s.mu.Unlock()
	}
	return n
}

// renewLeases refreshes every under-construction file held by client.
// The per-shard lease index makes this O(files the client is writing),
// not O(namespace) — the scan that made client heartbeats the namenode's
// most expensive RPC under load.
func (ns *namesystem) renewLeases(client string, now time.Time) {
	for _, s := range ns.shards {
		ns.lockShard(s)
		for _, f := range s.leases[client] {
			f.renewed = now
		}
		s.mu.Unlock()
	}
}

// holdsLease reports whether client is writing any file.
func (ns *namesystem) holdsLease(client string) bool {
	for _, s := range ns.shards {
		ns.lockShard(s)
		held := len(s.leases[client]) > 0
		s.mu.Unlock()
		if held {
			return true
		}
	}
	return false
}

// recoverExpired force-finalizes files whose writer has been silent
// longer than timeout: blocks that never got a finalized replica are
// dropped (the dead client's unflushed tail), the rest are kept, and the
// file completes so other clients can use it. The lease index bounds the
// scan to under-construction files only.
func (ns *namesystem) recoverExpired(now time.Time, timeout time.Duration) {
	for _, s := range ns.shards {
		ns.lockShard(s)
		var expired []*fileInode
		for _, byPath := range s.leases {
			for _, f := range byPath {
				if now.Sub(f.renewed) > timeout {
					expired = append(expired, f)
				}
			}
		}
		sort.Slice(expired, func(i, j int) bool { return expired[i].path < expired[j].path })
		for _, f := range expired {
			ns.recoverLeaseLocked(s, f)
		}
		s.mu.Unlock()
	}
}

// recoverLeaseLocked finalizes one abandoned file. Caller holds f's
// shard.
func (ns *namesystem) recoverLeaseLocked(s *nsShard, f *fileInode) {
	kept := f.blocks[:0]
	for _, id := range f.blocks {
		st := ns.stripeFor(id)
		ns.lockStripe(st)
		meta := st.blocks[id]
		if meta != nil && len(meta.locations) > 0 {
			kept = append(kept, id)
			st.mu.Unlock()
			continue
		}
		delete(st.blocks, id)
		st.mu.Unlock()
	}
	f.blocks = kept
	s.dropLeaseLocked(f.client, f.path)
	f.complete = true
	f.client = ""
}

// anyUnreportedBlock reports whether some block still has zero reported
// replicas — the safe-mode exit condition after a restart.
func (ns *namesystem) anyUnreportedBlock() bool {
	for _, st := range ns.stripes {
		ns.lockStripe(st)
		for _, meta := range st.blocks {
			if len(meta.locations) == 0 {
				st.mu.Unlock()
				return true
			}
		}
		st.mu.Unlock()
	}
	return false
}

// restore inserts a checkpointed file and its block metadata (fsimage
// load into an empty namesystem).
func (ns *namesystem) restore(f *fileInode, metas []block.Block) {
	s := ns.shardFor(f.path)
	ns.lockShard(s)
	s.files[f.path] = f
	if !f.complete {
		s.addLeaseLocked(f)
	}
	s.mu.Unlock()
	for _, b := range metas {
		st := ns.stripeFor(b.ID)
		ns.lockStripe(st)
		st.blocks[b.ID] = &blockMeta{
			cur:         b,
			path:        f.path,
			locations:   make(map[string]bool),
			replication: f.replication,
			complete:    f.complete,
		}
		st.mu.Unlock()
	}
}

// underReplicated sweeps the block manager for complete blocks whose
// placeable-replica count is below their replication factor, invoking
// visit for each with a copy of its holder set (sorted). The sweep
// iterates each stripe once under its lock with no per-block work
// beyond map lookups — healthy blocks cost a few probes of placeable —
// so its cost stays flat as the namespace grows and visit (which may
// take the datanode-manager and replication locks) runs with no stripe
// held. This is the maintenance path; it trades exactness under
// concurrent mutation for never stalling foreground operations.
func (ns *namesystem) underReplicated(placeable map[string]bool, visit func(cur block.Block, holders []string, missing int)) {
	type cand struct {
		cur     block.Block
		holders []string
		missing int
	}
	var cands []cand
	for _, st := range ns.stripes {
		cands = cands[:0]
		ns.lockStripe(st)
		for _, meta := range st.blocks {
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
			holders := make([]string, 0, len(meta.locations))
			for dn := range meta.locations {
				holders = append(holders, dn)
			}
			sort.Strings(holders)
			cands = append(cands, cand{cur: meta.cur, holders: holders, missing: meta.replication - good})
		}
		st.mu.Unlock()
		for _, c := range cands {
			visit(c.cur, c.holders, c.missing)
		}
	}
}
