// Package storage implements datanode block storage. A replica is either
// temporary (being written by a pipeline) or finalized. Two backends are
// provided: an in-memory store (fast, used by tests, simulations and
// examples) and an on-disk store (block file plus a checksum meta file,
// like HDFS's blk_N / blk_N.meta pairs).
//
// Recovery model: when a pipeline fails, the client re-streams the whole
// interrupted block under a bumped generation stamp (see Algorithm 3/4 in
// the paper and DESIGN.md), so stores support overwriting temporary
// replicas rather than appending to them.
package storage

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"repro/internal/block"
	"repro/internal/bufpool"
	"repro/internal/checksum"
	"repro/internal/clock"
)

// Errors returned by stores.
var (
	ErrNotFound     = errors.New("storage: block not found")
	ErrExists       = errors.New("storage: block already exists")
	ErrNotFinalized = errors.New("storage: block not finalized")
	ErrCommitted    = errors.New("storage: writer already committed")
)

// State of a replica.
type State int

const (
	// Temp replicas are being written by an open pipeline.
	Temp State = iota
	// Finalized replicas are complete and readable.
	Finalized
)

func (s State) String() string {
	if s == Finalized {
		return "FINALIZED"
	}
	return "TEMP"
}

// ReplicaInfo describes one stored replica.
type ReplicaInfo struct {
	Block block.Block
	State State
	Len   int64
}

// BlockWriter streams one replica's bytes. Commit finalizes the replica;
// Close without Commit aborts and discards it.
type BlockWriter interface {
	io.Writer
	// Commit marks the replica finalized with the bytes written so far.
	Commit() error
	// Close aborts the replica if Commit was not called. Close after
	// Commit is a no-op.
	Close() error
}

// SizeHinter is an optional BlockWriter refinement: SizeHint tells the
// writer the block's expected final length so it can preallocate its
// buffer or reserve disk space. The hint is advisory — writers must
// accept any amount of data regardless.
type SizeHinter interface {
	SizeHint(n int64)
}

// Store is the interface datanodes program against.
type Store interface {
	// Create opens a writer for a new temporary replica. If overwrite is
	// set, an existing replica with the same ID (any state) is discarded
	// first — the pipeline-recovery path.
	Create(b block.Block, overwrite bool) (BlockWriter, error)
	// Open returns a reader over a finalized replica and its length.
	Open(id block.ID) (io.ReadCloser, int64, error)
	// Sums returns the finalized replica's per-chunk checksums as
	// captured at commit time. Serving these (rather than re-computing
	// from the stored bytes) is what lets readers detect replicas that
	// rotted after they were written.
	Sums(id block.ID) ([]uint32, error)
	// Info reports a replica's metadata.
	Info(id block.ID) (ReplicaInfo, error)
	// Delete removes a replica in any state.
	Delete(id block.ID) error
	// Blocks lists all finalized replicas, sorted by ID.
	Blocks() []ReplicaInfo
	// UsedBytes is the total stored payload (all states).
	UsedBytes() int64
}

// ---------------------------------------------------------------------
// In-memory store
// ---------------------------------------------------------------------

// memReplica's bytes live in a bufpool buffer. While the replica is
// temporary the buffer belongs to the writer that created it — it alone
// appends, grows, and on abort recycles it, even after Create(overwrite)
// or Delete took the replica out of the map, because that writer may
// still be in Write. Commit hands the buffer to the store, which
// recycles it on Delete unless a reader is open; every other way a
// replica leaves the map drops the buffer for the garbage collector.
type memReplica struct {
	info    ReplicaInfo
	buf     *[]byte // pooled storage behind data; nil until the first byte or SizeHint
	data    []byte
	sums    []uint32
	readers int // open readers and running scrubs; guarded by MemStore.mu
}

// MemStore keeps replicas on the heap. PerByteDelay, if non-zero, charges
// write latency proportional to the bytes written — the paper's T_w knob
// (checksum verification + local disk write time per packet).
type MemStore struct {
	mu sync.Mutex
	// Clk is the time source used for write-delay injection.
	Clk clock.Clock
	// PerByteDelay charges this much latency per byte written.
	PerByteDelay time.Duration

	replicas map[block.ID]*memReplica
}

// NewMemStore returns an empty in-memory store.
func NewMemStore() *MemStore {
	return &MemStore{
		Clk:      clock.System,
		replicas: make(map[block.ID]*memReplica),
	}
}

type memWriter struct {
	store     *MemStore
	rep       *memReplica
	chunker   *checksum.Chunked
	committed bool
	closed    bool
}

// SizeHint preallocates the replica buffer to the expected block
// length, skipping the doubling growth chain entirely on the write hot
// path (storage.SizeHinter).
func (w *memWriter) SizeHint(n int64) {
	if w.closed || w.committed || n <= 0 || n > 1<<40 {
		return
	}
	w.store.mu.Lock()
	if int64(cap(w.rep.data)) < n {
		w.grow(int(n))
	}
	w.store.mu.Unlock()
	w.chunker.Grow(n)
}

// grow moves the replica into a pooled buffer of at least newCap bytes
// and recycles the one it outgrew. Caller holds store.mu.
func (w *memWriter) grow(newCap int) {
	bp := bufpool.Get(newCap)
	n := copy(*bp, w.rep.data)
	bufpool.Put(w.rep.buf)
	w.rep.buf, w.rep.data = bp, (*bp)[:n]
}

func (w *memWriter) Write(p []byte) (int, error) {
	if w.closed || w.committed {
		return 0, ErrCommitted
	}
	if d := w.store.PerByteDelay; d > 0 && len(p) > 0 {
		w.store.Clk.Sleep(time.Duration(len(p)) * d)
	}
	w.store.mu.Lock()
	if need := len(w.rep.data) + len(p); need > cap(w.rep.data) {
		// Double instead of append's ~1.25x large-slice growth: packets
		// arrive in 64 KB dribbles, and the shallower growth chain
		// allocates (and memmoves) several block sizes of dead
		// intermediates per block on the datanode hot path.
		newCap := 2 * cap(w.rep.data)
		if newCap < need {
			newCap = need
		}
		if newCap < 1<<20 {
			newCap = 1 << 20
		}
		w.grow(newCap)
	}
	w.rep.data = append(w.rep.data, p...)
	w.rep.info.Len = int64(len(w.rep.data))
	w.store.mu.Unlock()
	w.chunker.Write(p)
	return len(p), nil
}

func (w *memWriter) Commit() error {
	if w.closed {
		return ErrCommitted
	}
	if w.committed {
		return ErrCommitted
	}
	w.committed = true
	w.store.mu.Lock()
	defer w.store.mu.Unlock()
	w.rep.info.State = Finalized
	w.rep.info.Block.NumBytes = w.rep.info.Len
	w.rep.sums = w.chunker.Sums()
	return nil
}

func (w *memWriter) Close() error {
	if w.closed {
		return nil
	}
	w.closed = true
	if w.committed {
		return nil
	}
	w.store.mu.Lock()
	defer w.store.mu.Unlock()
	// Abort: discard the temp replica if it is still ours. The buffer is
	// ours either way, and nobody else has seen it: a temp replica has no
	// readers.
	if cur, ok := w.store.replicas[w.rep.info.Block.ID]; ok && cur == w.rep {
		delete(w.store.replicas, w.rep.info.Block.ID)
	}
	bufpool.Put(w.rep.buf)
	w.rep.buf, w.rep.data = nil, nil
	return nil
}

// Create implements Store.
func (s *MemStore) Create(b block.Block, overwrite bool) (BlockWriter, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, exists := s.replicas[b.ID]; exists && !overwrite {
		return nil, fmt.Errorf("%w: %v", ErrExists, b)
	}
	rep := &memReplica{info: ReplicaInfo{Block: b, State: Temp}}
	s.replicas[b.ID] = rep
	return &memWriter{store: s, rep: rep, chunker: checksum.NewChunked(checksum.DefaultChunkSize)}, nil
}

// Open implements Store.
func (s *MemStore) Open(id block.ID) (io.ReadCloser, int64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	rep, ok := s.replicas[id]
	if !ok {
		return nil, 0, fmt.Errorf("%w: blk_%d", ErrNotFound, id)
	}
	if rep.info.State != Finalized {
		return nil, 0, fmt.Errorf("%w: blk_%d", ErrNotFinalized, id)
	}
	rep.readers++
	r := &memReader{store: s, rep: rep}
	r.Reader.Reset(rep.data)
	return r, rep.info.Len, nil
}

// memReader reads a finalized replica in place. While it is open the
// replica's buffer is not recycled, so a Delete racing a read leaves the
// reader the bytes it opened.
type memReader struct {
	bytes.Reader
	store  *MemStore
	rep    *memReplica
	closed bool
}

func (r *memReader) Close() error {
	r.store.mu.Lock()
	if !r.closed {
		r.closed = true
		r.rep.readers--
	}
	r.store.mu.Unlock()
	return nil
}

// Sums implements Store.
func (s *MemStore) Sums(id block.ID) ([]uint32, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	rep, ok := s.replicas[id]
	if !ok {
		return nil, fmt.Errorf("%w: blk_%d", ErrNotFound, id)
	}
	if rep.info.State != Finalized {
		return nil, fmt.Errorf("%w: blk_%d", ErrNotFinalized, id)
	}
	out := make([]uint32, len(rep.sums))
	copy(out, rep.sums)
	return out, nil
}

// Info implements Store.
func (s *MemStore) Info(id block.ID) (ReplicaInfo, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	rep, ok := s.replicas[id]
	if !ok {
		return ReplicaInfo{}, fmt.Errorf("%w: blk_%d", ErrNotFound, id)
	}
	return rep.info, nil
}

// Delete implements Store.
func (s *MemStore) Delete(id block.ID) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	rep, ok := s.replicas[id]
	if !ok {
		return fmt.Errorf("%w: blk_%d", ErrNotFound, id)
	}
	delete(s.replicas, id)
	if rep.info.State == Finalized && rep.readers == 0 {
		bufpool.Put(rep.buf)
		rep.buf, rep.data = nil, nil
	}
	return nil
}

// Blocks implements Store.
func (s *MemStore) Blocks() []ReplicaInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]ReplicaInfo, 0, len(s.replicas))
	for _, rep := range s.replicas {
		if rep.info.State == Finalized {
			out = append(out, rep.info)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Block.ID < out[j].Block.ID })
	return out
}

// UsedBytes implements Store.
func (s *MemStore) UsedBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var total int64
	for _, rep := range s.replicas {
		total += rep.info.Len
	}
	return total
}

// VerifyBlock re-checksums a finalized replica against the sums captured
// at commit time — a scrubber used by tests and fault-injection checks.
func (s *MemStore) VerifyBlock(id block.ID) error {
	s.mu.Lock()
	rep, ok := s.replicas[id]
	if !ok {
		s.mu.Unlock()
		return fmt.Errorf("%w: blk_%d", ErrNotFound, id)
	}
	if rep.info.State != Finalized {
		s.mu.Unlock()
		return fmt.Errorf("%w: blk_%d", ErrNotFinalized, id)
	}
	data := rep.data
	sums := rep.sums
	rep.readers++ // keeps Delete from recycling data under the scrub
	s.mu.Unlock()
	err := checksum.Verify(data, sums, checksum.DefaultChunkSize)
	s.mu.Lock()
	rep.readers--
	s.mu.Unlock()
	return err
}

// Truncate shortens a finalized replica's stored bytes to n without
// touching its recorded length or checksums (fault injection only) —
// the rotted-tail model: the replica looks whole in metadata until a
// reader runs off the end of the data.
func (s *MemStore) Truncate(id block.ID, n int64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	rep, ok := s.replicas[id]
	if !ok || n < 0 || int64(len(rep.data)) < n {
		return fmt.Errorf("%w: blk_%d", ErrNotFound, id)
	}
	rep.data = rep.data[:n]
	return nil
}

// Corrupt flips a byte in a finalized replica (fault injection only).
func (s *MemStore) Corrupt(id block.ID, offset int64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	rep, ok := s.replicas[id]
	if !ok || int64(len(rep.data)) <= offset {
		return fmt.Errorf("%w: blk_%d", ErrNotFound, id)
	}
	rep.data[offset] ^= 0xff
	return nil
}

var _ Store = (*MemStore)(nil)
