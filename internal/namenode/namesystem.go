package namenode

import (
	"errors"
	"fmt"
	"slices"
	"sort"
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

// fileInode is one entry in the namespace.
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

// blockMeta is the block manager's record for one block.
type blockMeta struct {
	cur  block.Block // authoritative generation and committed length
	path string
	// locations names the datanodes holding a finalized replica, sorted
	// by name: one small array per block, as HDFS keeps, made at the
	// first report with room for the replication factor.
	locations []string
	// replication and complete mirror the owning file so the replication
	// sweep can judge a block from the block map alone, without chasing
	// its inode. replication is fixed at allocation; complete flips once,
	// when the file completes.
	replication int
	complete    bool
}

// has reports whether dn holds a finalized replica of the block.
func (m *blockMeta) has(dn string) bool {
	_, found := slices.BinarySearch(m.locations, dn)
	return found
}

// add records dn as a holder; a second report from it changes nothing.
func (m *blockMeta) add(dn string) {
	i, found := slices.BinarySearch(m.locations, dn)
	if found {
		return
	}
	if m.locations == nil {
		m.locations = make([]string, 0, max(m.replication, 1))
	}
	m.locations = slices.Insert(m.locations, i, dn)
}

// remove forgets dn as a holder.
func (m *blockMeta) remove(dn string) {
	if i, found := slices.BinarySearch(m.locations, dn); found {
		m.locations = slices.Delete(m.locations, i, i+1)
	}
}

// namesystem is the namespace plus block manager, as in Hadoop's
// FSNamesystem: the file map, the per-client lease index, the block map
// and the ID and generation counters. It has no lock of its own: only
// Namenode's exported methods reach it, holding nn.mu.
type namesystem struct {
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

func (ns *namesystem) addLease(f *fileInode) {
	byPath := ns.leases[f.client]
	if byPath == nil {
		byPath = make(map[string]*fileInode)
		ns.leases[f.client] = byPath
	}
	byPath[f.path] = f
}

func (ns *namesystem) dropLease(client, path string) {
	if byPath := ns.leases[client]; byPath != nil {
		delete(byPath, path)
		if len(byPath) == 0 {
			delete(ns.leases, client)
		}
	}
}

// --- namespace operations ---

// create makes a new inode and records its lease, renewed as of now.
// Overwrite replaces an existing file, queueing deletion of its replicas
// on dm (removeInode).
func (ns *namesystem) create(path, client string, replication int, blockSize int64, overwrite bool, now time.Time, dm *datanodeManager) error {
	if replication < 1 {
		replication = 1
	}
	if blockSize <= 0 {
		return fmt.Errorf("namenode: invalid block size %d", blockSize)
	}
	if old, exists := ns.files[path]; exists {
		if !overwrite {
			return fmt.Errorf("%w: %s", ErrFileExists, path)
		}
		ns.removeInode(old, dm)
	}
	f := &fileInode{
		path:        path,
		replication: replication,
		blockSize:   blockSize,
		client:      client,
		renewed:     now,
	}
	ns.files[path] = f
	ns.addLease(f)
	return nil
}

// removeInode drops f and its blocks, and queues deletion of every
// replica they had on dm (delivered with each holder's next heartbeat).
func (ns *namesystem) removeInode(f *fileInode, dm *datanodeManager) {
	for _, id := range f.blocks {
		if meta, ok := ns.blocks[id]; ok {
			for _, dn := range meta.locations {
				dm.scheduleInvalidate(dn, id, meta.cur.Gen)
			}
		}
		delete(ns.blocks, id)
	}
	delete(ns.files, f.path)
	if !f.complete {
		ns.dropLease(f.client, f.path)
	}
}

// checkLease fetches an under-construction file owned by client.
func (ns *namesystem) checkLease(path, client string) (*fileInode, error) {
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

// allocateBlock appends a fresh block to the file.
func (ns *namesystem) allocateBlock(f *fileInode) block.Block {
	ns.nextBlock++
	ns.nextGen++
	b := block.Block{ID: block.ID(ns.nextBlock), Gen: block.GenStamp(ns.nextGen)}
	f.blocks = append(f.blocks, b.ID)
	ns.blocks[b.ID] = &blockMeta{
		cur:         b,
		path:        f.path,
		replication: f.replication,
	}
	return b
}

// reusableTail detects a retried addBlock: prev is the last block the
// client acknowledges having been granted. If the file's tail is a
// different block that holds no data and no finalized replicas, it was
// allocated by an earlier attempt of this very request whose response
// the client never saw (a timed-out RPC the namenode still executed),
// so it is handed back for reuse instead of orphaning it.
func (ns *namesystem) reusableTail(f *fileInode, prev block.Block) (block.Block, bool) {
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
	meta, ok := ns.blocks[b.ID]
	if !ok {
		return fmt.Errorf("%w: %v", ErrUnknownBlock, b)
	}
	if b.Gen != meta.cur.Gen {
		return fmt.Errorf("%w: %v reported gen %d, current %d", ErrStaleGeneration, b, b.Gen, meta.cur.Gen)
	}
	meta.add(dn)
	if b.NumBytes > meta.cur.NumBytes {
		meta.cur.NumBytes = b.NumBytes
	}
	return nil
}

// bumpGeneration starts a block's recovery: a new generation stamp, no
// committed length, and no replica locations — those recorded under the
// old generation are stale, and the survivors re-report after the client
// re-streams.
func (ns *namesystem) bumpGeneration(meta *blockMeta) {
	ns.nextGen++
	meta.cur.Gen = block.GenStamp(ns.nextGen)
	meta.cur.NumBytes = 0
	clear(meta.locations)
	meta.locations = meta.locations[:0]
}

// complete finalizes the file when every block has at least one
// finalized replica (HDFS's minimal-replication rule).
func (ns *namesystem) complete(path, client string) (bool, error) {
	f, err := ns.checkLease(path, client)
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
	ns.dropLease(f.client, f.path)
	f.client = ""
	// Mirror completion onto the block metas so the replication sweep
	// starts watching these blocks.
	for _, id := range f.blocks {
		ns.blocks[id].complete = true
	}
	return true, nil
}

// rename moves a file, and its lease if it is under construction. The
// destination must not exist.
func (ns *namesystem) rename(src, dst string) error {
	f, ok := ns.files[src]
	if !ok {
		return fmt.Errorf("%w: %s", ErrFileNotFound, src)
	}
	if _, exists := ns.files[dst]; exists {
		return fmt.Errorf("%w: %s", ErrFileExists, dst)
	}
	delete(ns.files, src)
	if !f.complete {
		ns.dropLease(f.client, src)
	}
	f.path = dst
	ns.files[dst] = f
	if !f.complete {
		ns.addLease(f)
	}
	for _, id := range f.blocks {
		if meta, ok := ns.blocks[id]; ok {
			meta.path = dst
		}
	}
	return nil
}

// renewLeases refreshes every under-construction file held by client.
// The lease index makes this O(files the client is writing), not
// O(namespace) — the scan that made client heartbeats the namenode's
// most expensive RPC under load.
func (ns *namesystem) renewLeases(client string, now time.Time) {
	for _, f := range ns.leases[client] {
		f.renewed = now
	}
}

// recoverExpired force-finalizes files whose writer has been silent
// longer than timeout: blocks that never got a finalized replica are
// dropped (the dead client's unflushed tail), the rest are kept, and the
// file completes so other clients can use it. The lease index bounds the
// scan to under-construction files only.
func (ns *namesystem) recoverExpired(now time.Time, timeout time.Duration) {
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
		ns.recoverLease(f)
	}
}

// recoverLease finalizes one abandoned file.
func (ns *namesystem) recoverLease(f *fileInode) {
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
	ns.dropLease(f.client, f.path)
	f.complete = true
	f.client = ""
}

// anyUnreportedBlock reports whether some block still has zero reported
// replicas — the safe-mode exit condition after a restart.
func (ns *namesystem) anyUnreportedBlock() bool {
	for _, meta := range ns.blocks {
		if len(meta.locations) == 0 {
			return true
		}
	}
	return false
}
