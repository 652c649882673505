package namenode

import (
	"errors"
	"fmt"
	"slices"
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
}

// lease is one client's write lease, as Hadoop's LeaseManager keeps it:
// when the holder last showed a sign of life (create, addBlock,
// recoverBlock or a client heartbeat) and the under-construction files
// it holds, by path. One sign of life renews every file.
type lease struct {
	renewed time.Time
	files   map[string]*fileInode
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

// namesystem is the namespace plus block manager, as in Hadoop's
// FSNamesystem: the file map, the leases, the block map and the ID and
// generation counters. It has no lock of its own: only Namenode's
// exported methods reach it, holding nn.mu.
type namesystem struct {
	files map[string]*fileInode
	// leases holds one lease per client heard from within the lease
	// timeout, with or without open files: it is the namenode's only
	// record of client liveness (Namenode.expireLeases).
	leases    map[string]*lease
	blocks    map[block.ID]*blockMeta
	nextBlock int64
	nextGen   uint64
}

func newNamesystem() *namesystem {
	return &namesystem{
		files:  make(map[string]*fileInode),
		leases: make(map[string]*lease),
		blocks: make(map[block.ID]*blockMeta),
	}
}

// --- leases ---

// renew stamps client's lease as of now, making it on first sight.
func (ns *namesystem) renew(client string, now time.Time) *lease {
	l := ns.leases[client]
	if l == nil {
		l = &lease{files: make(map[string]*fileInode)}
		ns.leases[client] = l
	}
	l.renewed = now
	return l
}

// dropLease takes path out of client's lease; the lease itself stays
// until it expires. A lease already expired is gone: nothing to do.
func (ns *namesystem) dropLease(client, path string) {
	if l := ns.leases[client]; l != nil {
		delete(l.files, path)
	}
}

// --- namespace operations ---

// create makes a new inode and adds it to client's lease, renewed as of
// now. Overwrite replaces an existing file, queueing deletion of its
// replicas on dm (removeInode).
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
	}
	ns.files[path] = f
	ns.renew(client, now).files[path] = f
	return nil
}

// removeInode drops f and its blocks (see dropBlocks).
func (ns *namesystem) removeInode(f *fileInode, dm *datanodeManager) {
	ns.dropBlocks(f.blocks, dm)
	delete(ns.files, f.path)
	if !f.complete {
		ns.dropLease(f.client, f.path)
	}
}

// dropBlocks forgets the blocks and queues deletion of every replica they
// had on dm (delivered with each holder's next heartbeat).
func (ns *namesystem) dropBlocks(ids []block.ID, dm *datanodeManager) {
	for _, id := range ids {
		if meta, ok := ns.blocks[id]; ok {
			for _, dn := range meta.locations {
				dm.scheduleInvalidate(dn, id, meta.cur.Gen)
			}
		}
		delete(ns.blocks, id)
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

// rename moves a file, re-keyed within its holder's lease if it is
// under construction. The destination must not exist.
func (ns *namesystem) rename(src, dst string) error {
	f, ok := ns.files[src]
	if !ok {
		return fmt.Errorf("%w: %s", ErrFileNotFound, src)
	}
	if _, exists := ns.files[dst]; exists {
		return fmt.Errorf("%w: %s", ErrFileExists, dst)
	}
	delete(ns.files, src)
	f.path = dst
	ns.files[dst] = f
	if !f.complete {
		l := ns.leases[f.client]
		delete(l.files, src)
		l.files[dst] = f
	}
	for _, id := range f.blocks {
		if meta, ok := ns.blocks[id]; ok {
			meta.path = dst
		}
	}
	return nil
}

// recoverLease finalizes one abandoned file as the longest prefix of its
// blocks that have a finalized replica. The first block without one ends
// the file: it and every block after it are dropped, with their replicas.
// Under SMARTH a later block can land while an earlier one has not (an
// earlier pipeline still streaming or in recovery), so what goes is not
// only an unflushed tail, and keeping a later block would leave a hole.
func (ns *namesystem) recoverLease(f *fileInode, dm *datanodeManager) {
	kept := len(f.blocks)
	for i, id := range f.blocks {
		meta := ns.blocks[id]
		if meta == nil || len(meta.locations) == 0 {
			kept = i
			break
		}
		meta.complete = true
	}
	ns.dropBlocks(f.blocks[kept:], dm)
	f.blocks = f.blocks[:kept]
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
