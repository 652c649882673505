// Package storage implements datanode block storage. A replica is either
// temporary (being written by a pipeline) or finalized. Two backends are
// provided: an in-memory store (fast, used by tests and the in-memory
// cluster) and an on-disk store (block file plus a checksum meta file,
// like HDFS's blk_N / blk_N.meta pairs, and a free/ directory of deleted
// block files kept for reuse).
//
// Checksums travel in wire form both ways. A writer appends the
// checksums its caller verified and the store keeps them as given; a
// reader opened with Open hands them back exactly as committed
// (Replica.RawSums), for a sender to slice into packets — nothing in
// between decodes, re-encodes or re-sums them.
//
// Recovery model: when a pipeline fails, the client re-streams the whole
// interrupted block under a bumped generation stamp (see Algorithm 3/4 in
// the paper and DESIGN.md). Both stores fence replicas by generation, as
// HDFS does: Create at generation g displaces a temporary replica at or
// below g or a finalized one below g, and is refused with ErrStale by one
// above g or finalized at g; a writer whose replica was displaced or
// deleted can no longer commit (ErrStale), and its abort leaves alone
// the replica that displaced it.
//
// Both stores recycle a replica's storage — MemStore its bufpool
// buffers, DiskStore its block file — by one rule: only when Delete
// unmaps the replica finalized and unpinned. Open pins a replica until
// the reader's Close, so bytes a reader may still read are never handed
// to a new replica. Storage leaving the store any other way — a
// temporary replica's, a displaced one's, one deleted while pinned — is
// dropped instead (MemStore leaves it to the garbage collector unless
// the writer that owns it aborts; DiskStore unlinks the file, and an
// open descriptor keeps the inode).
package storage

import (
	"bytes"
	"errors"
	"fmt"
	"io"

	"repro/internal/block"
	"repro/internal/bufpool"
	"repro/internal/checksum"
)

// Errors returned by stores.
var (
	ErrNotFound     = errors.New("storage: block not found")
	ErrExists       = errors.New("storage: block already exists")
	ErrNotFinalized = errors.New("storage: block not finalized")
	ErrCommitted    = errors.New("storage: writer already committed")
	ErrMisaligned   = errors.New("storage: replica ends mid-chunk, or the checksums do not cover the bytes")
	// ErrCorrupt refuses a finalized replica whose stored checksums do not
	// cover exactly its bytes (a DiskStore .meta file of the wrong length).
	ErrCorrupt = errors.New("storage: replica checksums do not cover its bytes")
	// ErrStale refuses a Create the generation fence (package doc) keeps
	// out, and the Commit of a writer whose replica was displaced.
	ErrStale = errors.New("storage: stale generation")
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
//
// A replica grows by Append, which takes bytes somebody has already
// verified together with the checksums they were verified against, and
// keeps both as they are: a store never sums what a datanode just
// checked. Write is the convenience for callers that hold bare bytes —
// it sums them, then appends. Interior appends carry whole chunks
// (HDFS's rule); only the last may end short.
type BlockWriter interface {
	// Write sums p and appends it. Unlike Append it takes any length at
	// any time: a short tail is completed by the next Write.
	io.Writer
	// Lend offers the next n bytes of the replica's own storage, for the
	// caller to fill and then Append, when offset is where the replica
	// ends; otherwise, or when the store has no such memory (a file), it
	// returns nil. The bytes are not part of the replica until appended.
	// Lent memory stays valid until Close, whatever happens to the
	// replica in between — committed, deleted or overwritten.
	Lend(offset int64, n int) []byte
	// Append adds p and its chunk checksums, wire-encoded as packets carry
	// them (checksum.Encode's form: one per DefaultChunkSize bytes, the
	// last covering a short tail). The caller vouches that they match. A
	// p that Lend returned is adopted where it lies; anything else is
	// copied. ErrMisaligned reports a replica that already ends mid-chunk
	// or a checksum count that does not fit p.
	Append(p, rawSums []byte) error
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

// Replica is a finalized replica opened for reading: its bytes as a
// seekable stream and its checksums as they were committed. Close
// releases both.
type Replica interface {
	io.ReadSeekCloser
	// RawSums returns the replica's chunk checksums exactly as committed,
	// in wire form (one per DefaultChunkSize bytes, the last covering a
	// short tail): NumChunks(length) × BytesPerChecksum bytes. Serving
	// these rather than sums recomputed from the stored bytes is what lets
	// a reader detect a replica that rotted after it was written. The
	// slice is valid until Close, whatever happens to the replica in
	// between — deleted or overwritten.
	RawSums() []byte
}

// Store is the interface datanodes program against.
type Store interface {
	// Create opens a writer for a new temporary replica. Without
	// overwrite any replica with the same ID refuses it (ErrExists); with
	// it the generation fence decides — the pipeline-recovery path.
	Create(b block.Block, overwrite bool) (BlockWriter, error)
	// Open returns a finalized replica, with its checksums, and its
	// length. A replica whose stored checksums do not cover exactly that
	// length is refused with ErrCorrupt.
	Open(id block.ID) (Replica, int64, error)
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

// maxPrealloc caps what a size hint reserves: the hint may come off the
// wire, so it buys at most bufpool's largest class (1 GB, 8 MB of
// checksums) up front and the replica grows on demand past it.
const maxPrealloc = 1 << 30

const chunkSize = checksum.DefaultChunkSize

// sumsLen is how many bytes of wire checksums cover n bytes of replica.
func sumsLen(n int64) int {
	return checksum.NumChunks(int(n), chunkSize) * checksum.BytesPerChecksum
}

// chunkSums accumulates a replica-in-progress's chunk checksums in wire
// form in a pooled buffer. Appended checksums are kept as they came;
// only Write's bytes are summed here.
type chunkSums struct {
	raw     *[]byte // pooled; nil until reserve or the first checksum
	covered int64   // bytes the stream holds, tail included
	tail    []byte  // Write's bytes past the last whole chunk, not yet in raw
}

// reserve makes room for the checksums of n more bytes.
func (s *chunkSums) reserve(n int64) {
	need := sumsLen(min(n, maxPrealloc))
	switch {
	case s.raw == nil:
		s.raw = bufpool.GetCap(need)
	case cap(*s.raw)-len(*s.raw) < need:
		bp := bufpool.GetCap(len(*s.raw) + need)
		*bp = append(*bp, *s.raw...)
		bufpool.Put(s.raw)
		s.raw = bp
	}
}

// appendRaw records the checksums of n more bytes, which must start on a
// chunk boundary.
func (s *chunkSums) appendRaw(n int, raw []byte) error {
	if s.covered%chunkSize != 0 || len(raw) != sumsLen(int64(n)) {
		return ErrMisaligned
	}
	if s.raw == nil {
		s.reserve(int64(n))
	}
	*s.raw = append(*s.raw, raw...)
	s.covered += int64(n)
	return nil
}

// write sums p as the stream's continuation: whole chunks where they lie,
// a short tail held back for the next write (or finish) to complete.
func (s *chunkSums) write(p []byte) error {
	if int(s.covered%chunkSize) != len(s.tail) {
		return ErrMisaligned // an Append ended the stream mid-chunk
	}
	if s.raw == nil {
		s.reserve(int64(len(p)))
	}
	s.covered += int64(len(p))
	if len(s.tail) > 0 {
		k := min(chunkSize-len(s.tail), len(p))
		s.tail = append(s.tail, p[:k]...)
		p = p[k:]
		if len(s.tail) < chunkSize {
			return nil
		}
		s.finish()
	}
	whole := len(p) - len(p)%chunkSize
	*s.raw = checksum.AppendEncoded(*s.raw, p[:whole], chunkSize)
	s.tail = append(s.tail, p[whole:]...)
	return nil
}

// finish sums a held-back tail, at commit or when a write completes it.
func (s *chunkSums) finish() {
	if len(s.tail) > 0 {
		*s.raw = checksum.AppendEncoded(*s.raw, s.tail, chunkSize)
		s.tail = s.tail[:0]
	}
}

// release recycles the buffer (an aborted replica's, or a disk replica's
// once its meta file is written).
func (s *chunkSums) release() {
	bufpool.Put(s.raw)
	s.raw = nil
}

// memReplica's bytes and checksums live in bufpool buffers, recycled by
// the package doc's rule. While the replica is temporary they belong to
// the writer that created it — it alone appends, grows, and on abort
// recycles them, even after Create(overwrite) or Delete took the replica
// out of the map, because that writer may still be appending. Commit
// hands them to the store. Besides readers and scrubs, the writer itself
// pins the replica until its Close: it lends out parts of buf
// (BlockWriter.Lend) that a datanode's forwarder sends from.
type memReplica struct {
	info ReplicaInfo
	buf  *[]byte // pooled storage behind data; nil until the first byte or SizeHint
	data []byte
	sums *[]byte // pooled wire-encoded chunk checksums, set at Commit
	pins int     // open readers, running scrubs, the unclosed writer; guarded by MemStore.mu
}

func (r *memReplica) meta() *ReplicaInfo { return &r.info }

// rawSums is the replica's checksums in wire form (none for an empty one).
func (r *memReplica) rawSums() []byte {
	if r.sums == nil {
		return nil
	}
	return *r.sums
}

// recycle returns an unmapped, unpinned replica's buffers to the pool.
// Caller holds MemStore.mu.
func (r *memReplica) recycle() {
	bufpool.Put(r.buf)
	bufpool.Put(r.sums)
	r.buf, r.data, r.sums = nil, nil, nil
}

// MemStore keeps replicas on the heap.
type MemStore struct {
	index[*memReplica]
}

// NewMemStore returns an empty in-memory store.
func NewMemStore() *MemStore {
	return &MemStore{index: index[*memReplica]{reps: map[block.ID]*memReplica{}}}
}

type memWriter struct {
	store     *MemStore
	rep       *memReplica
	sums      chunkSums
	lent      bool // part of some rep.buf is out on loan: an outgrown buffer is dropped, not recycled
	committed bool
	closed    bool
}

// SizeHint preallocates the replica buffer to the expected block
// length, skipping the doubling growth chain entirely on the write hot
// path (storage.SizeHinter).
func (w *memWriter) SizeHint(n int64) {
	if w.closed || w.committed || n <= 0 {
		return
	}
	n = min(n, maxPrealloc)
	w.store.mu.Lock()
	if int64(cap(w.rep.data)) < n {
		w.grow(int(n))
	}
	w.store.mu.Unlock()
	w.sums.reserve(n)
}

// grow moves the replica into a pooled buffer of at least newCap bytes
// and recycles the one it outgrew — unless part of it was lent, in which
// case whoever borrowed it may still be reading. Caller holds store.mu.
func (w *memWriter) grow(newCap int) {
	bp := bufpool.Get(newCap)
	n := copy(*bp, w.rep.data)
	if !w.lent {
		bufpool.Put(w.rep.buf)
	}
	w.rep.buf, w.rep.data = bp, (*bp)[:n]
}

// room returns the n bytes past the replica's end, growing the buffer
// first if it must. Caller holds store.mu.
func (w *memWriter) room(n int) []byte {
	end := len(w.rep.data)
	if need := end + n; need > cap(w.rep.data) {
		// Double instead of append's ~1.25x large-slice growth: packets
		// arrive in 64 KB dribbles, and the shallower growth chain
		// allocates (and memmoves) several block sizes of dead
		// intermediates per block on the datanode hot path.
		w.grow(max(2*cap(w.rep.data), need, 1<<20))
	}
	return w.rep.data[end : end+n : end+n]
}

func (w *memWriter) Lend(offset int64, n int) []byte {
	if w.closed || w.committed {
		return nil
	}
	w.store.mu.Lock()
	defer w.store.mu.Unlock()
	if offset != int64(len(w.rep.data)) {
		return nil
	}
	w.lent = true
	return w.room(n)
}

func (w *memWriter) Append(p, rawSums []byte) error {
	if w.closed || w.committed {
		return ErrCommitted
	}
	if err := w.sums.appendRaw(len(p), rawSums); err != nil {
		return err
	}
	w.land(p)
	return nil
}

func (w *memWriter) Write(p []byte) (int, error) {
	if w.closed || w.committed {
		return 0, ErrCommitted
	}
	if err := w.sums.write(p); err != nil {
		return 0, err
	}
	w.land(p)
	return len(p), nil
}

// land makes p the replica's next bytes: adopted in place when p is the
// memory Lend handed out, copied otherwise.
func (w *memWriter) land(p []byte) {
	if len(p) == 0 {
		return
	}
	w.store.mu.Lock()
	dst := w.room(len(p))
	if &dst[0] != &p[0] {
		copy(dst, p)
	}
	w.rep.data = w.rep.data[:len(w.rep.data)+len(p)]
	w.rep.info.Len = int64(len(w.rep.data))
	w.store.mu.Unlock()
}

func (w *memWriter) Commit() error {
	if w.closed || w.committed {
		return ErrCommitted
	}
	w.store.mu.Lock()
	defer w.store.mu.Unlock()
	if err := w.store.ours(w.rep); err != nil {
		return err
	}
	w.committed = true
	w.sums.finish()
	w.rep.info.State = Finalized
	w.rep.info.Block.NumBytes = w.rep.info.Len
	w.rep.sums, w.sums.raw = w.sums.raw, nil
	return nil
}

func (w *memWriter) Close() error {
	if w.closed {
		return nil
	}
	w.closed = true
	w.store.mu.Lock()
	defer w.store.mu.Unlock()
	w.rep.pins--
	if w.committed {
		return nil
	}
	// Abort: discard the temp replica if it is still ours. The buffers are
	// ours either way, and nobody else can see them: a temp replica has
	// no readers, and whoever borrowed from Lend is done by Close.
	if w.store.ours(w.rep) == nil {
		delete(w.store.reps, w.rep.info.Block.ID)
	}
	w.rep.sums, w.sums.raw = w.sums.raw, nil
	w.rep.recycle()
	return nil
}

// Create implements Store.
func (s *MemStore) Create(b block.Block, overwrite bool) (BlockWriter, error) {
	rep := &memReplica{info: ReplicaInfo{Block: b, State: Temp}, pins: 1} // the writer's, until its Close
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, err := s.admit(rep, overwrite); err != nil {
		return nil, err
	}
	return &memWriter{store: s, rep: rep}, nil
}

// Open implements Store. A replica's checksums cover its bytes by
// construction (Append and Write check as they go), so it is never
// ErrCorrupt here.
func (s *MemStore) Open(id block.ID) (Replica, int64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	rep, err := s.finalized(id)
	if err != nil {
		return nil, 0, err
	}
	rep.pins++
	r := &memReader{store: s, rep: rep, sums: rep.rawSums()}
	r.Reader.Reset(rep.data)
	return r, rep.info.Len, nil
}

// memReader reads a finalized replica and its checksums in place. While
// it is open the replica is pinned and its buffers not recycled, so a
// Delete racing a read leaves the reader the bytes and sums it opened.
type memReader struct {
	bytes.Reader
	store  *MemStore
	rep    *memReplica
	sums   []byte
	closed bool
}

func (r *memReader) RawSums() []byte { return r.sums }

func (r *memReader) Close() error {
	r.store.mu.Lock()
	if !r.closed {
		r.closed = true
		r.rep.pins--
	}
	r.store.mu.Unlock()
	return nil
}

// Delete implements Store.
func (s *MemStore) Delete(id block.ID) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	rep, err := s.get(id)
	if err != nil {
		return err
	}
	delete(s.reps, id)
	if rep.info.State == Finalized && rep.pins == 0 {
		rep.recycle()
	}
	return nil
}

// VerifyBlock re-checksums a finalized replica against the sums captured
// at commit time — a scrubber used by tests and fault-injection checks.
func (s *MemStore) VerifyBlock(id block.ID) error { return verify(s, id) }

// scrubBuf is how much of a replica verify holds at a time: one packet.
const scrubBuf = 64 << 10

// verify is both stores' scrub: it reads a finalized replica through Open,
// a packet-sized pooled buffer at a time, and checks every chunk against
// the replica's own RawSums. A mismatch reports its chunk's index in the
// replica; a replica that ends before its recorded length fails too.
func verify(s Store, id block.ID) error {
	r, length, err := s.Open(id)
	if err != nil {
		return err
	}
	defer r.Close()
	sums := r.RawSums()
	bp := bufpool.Get(scrubBuf)
	defer bufpool.Put(bp)
	for off := int64(0); off < length; {
		buf := (*bp)[:min(int64(scrubBuf), length-off)]
		if _, err := io.ReadFull(r, buf); err != nil {
			return fmt.Errorf("storage: blk_%d ends short of its %d bytes: %w", id, length, err)
		}
		first := sumsLen(off)
		if err := checksum.VerifyEncoded(buf, sums[first:first+sumsLen(int64(len(buf)))], chunkSize); err != nil {
			var mm *checksum.ErrMismatch
			if errors.As(err, &mm) {
				mm.Chunk += int(off / chunkSize)
			}
			return err
		}
		off += int64(len(buf))
	}
	return nil
}

// Truncate shortens a finalized replica's stored bytes to n without
// touching its recorded length or checksums (fault injection only) —
// the rotted-tail model: the replica looks whole in metadata until a
// reader runs off the end of the data.
func (s *MemStore) Truncate(id block.ID, n int64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	rep, err := s.get(id)
	if err != nil || n < 0 || int64(len(rep.data)) < n {
		return fmt.Errorf("%w: blk_%d", ErrNotFound, id)
	}
	rep.data = rep.data[:n]
	return nil
}

// Corrupt flips a byte in a finalized replica (fault injection only).
func (s *MemStore) Corrupt(id block.ID, offset int64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	rep, err := s.get(id)
	if err != nil || int64(len(rep.data)) <= offset {
		return fmt.Errorf("%w: blk_%d", ErrNotFound, id)
	}
	rep.data[offset] ^= 0xff
	return nil
}

var _ Store = (*MemStore)(nil)
