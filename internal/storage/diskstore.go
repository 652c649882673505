package storage

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/block"
	"repro/internal/checksum"
)

// DiskStore keeps replicas under a directory:
//
//	<dir>/tmp/blk_<id>_<gen>        temporary replicas
//	<dir>/cur/blk_<id>_<gen>        finalized block files
//	<dir>/cur/blk_<id>_<gen>.meta   per-chunk CRC32C checksums
//
// Writes are not fsynced; durability across host crashes is out of scope
// for the reproduction (the paper's experiments never power-fail nodes).
type DiskStore struct {
	mu  sync.Mutex
	dir string
	// index maps block ID to the replica's file name and state.
	index map[block.ID]*diskReplica
}

type diskReplica struct {
	info ReplicaInfo
	path string // data file path
}

// NewDiskStore opens (or creates) a store rooted at dir and indexes any
// finalized blocks already present. Stale temp replicas are discarded,
// matching datanode restart behaviour.
func NewDiskStore(dir string) (*DiskStore, error) {
	s := &DiskStore{dir: dir, index: make(map[block.ID]*diskReplica)}
	for _, sub := range []string{"tmp", "cur"} {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			return nil, err
		}
	}
	// Drop leftovers from a previous crash.
	tmpEntries, err := os.ReadDir(filepath.Join(dir, "tmp"))
	if err != nil {
		return nil, err
	}
	for _, e := range tmpEntries {
		_ = os.Remove(filepath.Join(dir, "tmp", e.Name()))
	}
	// Re-index finalized blocks.
	curEntries, err := os.ReadDir(filepath.Join(dir, "cur"))
	if err != nil {
		return nil, err
	}
	for _, e := range curEntries {
		name := e.Name()
		if strings.HasSuffix(name, ".meta") {
			continue
		}
		b, ok := parseBlockFileName(name)
		if !ok {
			continue
		}
		fi, err := e.Info()
		if err != nil {
			continue
		}
		b.NumBytes = fi.Size()
		s.index[b.ID] = &diskReplica{
			info: ReplicaInfo{Block: b, State: Finalized, Len: fi.Size()},
			path: filepath.Join(dir, "cur", name),
		}
	}
	return s, nil
}

func blockFileName(b block.Block) string {
	return fmt.Sprintf("blk_%d_%d", b.ID, b.Gen)
}

func parseBlockFileName(name string) (block.Block, bool) {
	if !strings.HasPrefix(name, "blk_") {
		return block.Block{}, false
	}
	parts := strings.Split(strings.TrimPrefix(name, "blk_"), "_")
	if len(parts) != 2 {
		return block.Block{}, false
	}
	id, err1 := strconv.ParseInt(parts[0], 10, 64)
	gen, err2 := strconv.ParseUint(parts[1], 10, 64)
	if err1 != nil || err2 != nil {
		return block.Block{}, false
	}
	return block.Block{ID: block.ID(id), Gen: block.GenStamp(gen)}, true
}

type diskWriter struct {
	store     *DiskStore
	rep       *diskReplica
	f         *os.File
	sums      chunkSums
	failed    error // a file write's error: the replica is torn and can only be aborted
	committed bool
	closed    bool
}

// SizeHint sizes the checksum buffer for the expected block length
// (storage.SizeHinter); the block file itself grows as it is written.
func (w *diskWriter) SizeHint(n int64) {
	if n > 0 {
		w.sums.reserve(n)
	}
}

// Lend has nothing to offer: a file is not memory. The payload stays in
// the packet's own frame and reaches the file in Append's one write.
func (w *diskWriter) Lend(int64, int) []byte { return nil }

func (w *diskWriter) Append(p, rawSums []byte) error {
	if err := w.writable(); err != nil {
		return err
	}
	if err := w.sums.appendRaw(len(p), rawSums); err != nil {
		return err
	}
	_, err := w.land(p)
	return err
}

func (w *diskWriter) Write(p []byte) (int, error) {
	if err := w.writable(); err != nil {
		return 0, err
	}
	if err := w.sums.write(p); err != nil {
		return 0, err
	}
	return w.land(p)
}

func (w *diskWriter) writable() error {
	if w.closed || w.committed {
		return ErrCommitted
	}
	return w.failed
}

// land writes p, whose checksums are already recorded, to the block file.
func (w *diskWriter) land(p []byte) (int, error) {
	n, err := w.f.Write(p)
	if err != nil {
		w.failed = fmt.Errorf("storage: %v is torn: %w", w.rep.info.Block, err)
	}
	w.store.mu.Lock()
	w.rep.info.Len += int64(n)
	w.store.mu.Unlock()
	return n, err
}

func (w *diskWriter) Commit() error {
	if err := w.writable(); err != nil {
		return err
	}
	if err := w.f.Close(); err != nil {
		return err
	}
	w.committed = true
	w.sums.finish()
	defer w.sums.release()
	w.store.mu.Lock()
	defer w.store.mu.Unlock()
	final := filepath.Join(w.store.dir, "cur", blockFileName(w.rep.info.Block))
	if err := os.Rename(w.rep.path, final); err != nil {
		return err
	}
	var meta []byte
	if w.sums.raw != nil {
		meta = *w.sums.raw
	}
	if err := os.WriteFile(final+".meta", meta, 0o644); err != nil {
		return err
	}
	w.rep.path = final
	w.rep.info.State = Finalized
	w.rep.info.Block.NumBytes = w.rep.info.Len
	return nil
}

func (w *diskWriter) Close() error {
	if w.closed {
		return nil
	}
	w.closed = true
	if w.committed {
		return nil
	}
	w.f.Close()
	w.sums.release()
	w.store.mu.Lock()
	defer w.store.mu.Unlock()
	if cur, ok := w.store.index[w.rep.info.Block.ID]; ok && cur == w.rep {
		delete(w.store.index, w.rep.info.Block.ID)
	}
	return os.Remove(w.rep.path)
}

// Create implements Store.
func (s *DiskStore) Create(b block.Block, overwrite bool) (BlockWriter, error) {
	s.mu.Lock()
	if old, exists := s.index[b.ID]; exists {
		if !overwrite {
			s.mu.Unlock()
			return nil, fmt.Errorf("%w: %v", ErrExists, b)
		}
		os.Remove(old.path)
		os.Remove(old.path + ".meta")
		delete(s.index, b.ID)
	}
	rep := &diskReplica{
		info: ReplicaInfo{Block: b, State: Temp},
		path: filepath.Join(s.dir, "tmp", blockFileName(b)),
	}
	s.index[b.ID] = rep
	s.mu.Unlock()

	f, err := os.Create(rep.path)
	if err != nil {
		s.mu.Lock()
		delete(s.index, b.ID)
		s.mu.Unlock()
		return nil, err
	}
	return &diskWriter{store: s, rep: rep, f: f}, nil
}

// Open implements Store.
func (s *DiskStore) Open(id block.ID) (io.ReadCloser, int64, error) {
	s.mu.Lock()
	rep, ok := s.index[id]
	if !ok {
		s.mu.Unlock()
		return nil, 0, fmt.Errorf("%w: blk_%d", ErrNotFound, id)
	}
	if rep.info.State != Finalized {
		s.mu.Unlock()
		return nil, 0, fmt.Errorf("%w: blk_%d", ErrNotFinalized, id)
	}
	path, length := rep.path, rep.info.Len
	s.mu.Unlock()
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, err
	}
	return f, length, nil
}

// Sums implements Store.
func (s *DiskStore) Sums(id block.ID) ([]uint32, error) {
	s.mu.Lock()
	rep, ok := s.index[id]
	if !ok {
		s.mu.Unlock()
		return nil, fmt.Errorf("%w: blk_%d", ErrNotFound, id)
	}
	if rep.info.State != Finalized {
		s.mu.Unlock()
		return nil, fmt.Errorf("%w: blk_%d", ErrNotFinalized, id)
	}
	path := rep.path
	s.mu.Unlock()
	meta, err := os.ReadFile(path + ".meta")
	if err != nil {
		return nil, err
	}
	return checksum.Decode(meta)
}

// Info implements Store.
func (s *DiskStore) Info(id block.ID) (ReplicaInfo, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	rep, ok := s.index[id]
	if !ok {
		return ReplicaInfo{}, fmt.Errorf("%w: blk_%d", ErrNotFound, id)
	}
	return rep.info, nil
}

// Delete implements Store.
func (s *DiskStore) Delete(id block.ID) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	rep, ok := s.index[id]
	if !ok {
		return fmt.Errorf("%w: blk_%d", ErrNotFound, id)
	}
	delete(s.index, id)
	os.Remove(rep.path + ".meta")
	return os.Remove(rep.path)
}

// Blocks implements Store.
func (s *DiskStore) Blocks() []ReplicaInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]ReplicaInfo, 0, len(s.index))
	for _, rep := range s.index {
		if rep.info.State == Finalized {
			out = append(out, rep.info)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Block.ID < out[j].Block.ID })
	return out
}

// UsedBytes implements Store.
func (s *DiskStore) UsedBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var total int64
	for _, rep := range s.index {
		total += rep.info.Len
	}
	return total
}

// VerifyBlock re-reads a finalized replica and checks it against its
// stored meta checksums.
func (s *DiskStore) VerifyBlock(id block.ID) error {
	s.mu.Lock()
	rep, ok := s.index[id]
	if !ok {
		s.mu.Unlock()
		return fmt.Errorf("%w: blk_%d", ErrNotFound, id)
	}
	if rep.info.State != Finalized {
		s.mu.Unlock()
		return fmt.Errorf("%w: blk_%d", ErrNotFinalized, id)
	}
	path := rep.path
	s.mu.Unlock()

	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	meta, err := os.ReadFile(path + ".meta")
	if err != nil {
		return err
	}
	sums, err := checksum.Decode(meta)
	if err != nil {
		return err
	}
	return checksum.Verify(data, sums, checksum.DefaultChunkSize)
}

var _ Store = (*DiskStore)(nil)
