package storage

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"

	"repro/internal/block"
	"repro/internal/bufpool"
	"repro/internal/checksum"
)

// DiskStore keeps replicas under a directory:
//
//	<dir>/tmp/blk_<id>_<gen>        temporary replicas
//	<dir>/cur/blk_<id>_<gen>        finalized block files
//	<dir>/cur/blk_<id>_<gen>.meta   per-chunk CRC32C checksums, in wire form
//	<dir>/free/<k>                  deleted block files kept for reuse
//
// A deleted block's file is the store's to recycle under the package
// doc's rule: Delete moves it to free/ and the next Create overwrites it
// from offset 0, so a new replica writes over pages the kernel already
// holds instead of allocating them while the old ones are freed.
//
// Writes are not fsynced; durability across host crashes is out of scope
// for the reproduction (the paper's experiments never power-fail nodes).
type DiskStore struct {
	index[*diskReplica]
	tmp, cur string            // the tmp/ and cur/ directories, separator included
	free     [freeFiles]string // the pool's slot paths
	nfree    int               // free[:nfree] hold recycled files; guarded by mu
}

// freeFiles bounds the pool of recycled block files. Eight holds a
// datanode's share of one 64 MB upload in 8 MB blocks, which is what
// tcp_write_r3 deletes between uploads.
const freeFiles = 8

type diskReplica struct {
	info ReplicaInfo
	path string // data file path
	pins int    // open readers; guarded by DiskStore.mu
}

func (r *diskReplica) meta() *ReplicaInfo { return &r.info }

// NewDiskStore opens (or creates) a store rooted at dir and indexes any
// finalized blocks already present. Stale temp replicas are discarded,
// matching datanode restart behaviour, and so is a finalized replica
// whose .meta is missing or not exactly one checksum per chunk (a stat,
// no data read): it could never be served, and left out of Blocks the
// namenode re-replicates it from a good copy. A .meta whose block file
// is missing (a crash inside Commit) and the recycled files go too.
func NewDiskStore(dir string) (*DiskStore, error) {
	s := &DiskStore{
		index: index[*diskReplica]{reps: map[block.ID]*diskReplica{}},
		tmp:   filepath.Join(dir, "tmp") + string(filepath.Separator),
		cur:   filepath.Join(dir, "cur") + string(filepath.Separator),
	}
	for k := range s.free {
		s.free[k] = filepath.Join(dir, "free", strconv.Itoa(k))
	}
	for _, sub := range []string{"tmp", "cur", "free"} {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			return nil, err
		}
	}
	// Drop leftovers from a previous run.
	for _, sub := range []string{"tmp", "free"} {
		entries, err := os.ReadDir(filepath.Join(dir, sub))
		if err != nil {
			return nil, err
		}
		for _, e := range entries {
			_ = os.Remove(filepath.Join(dir, sub, e.Name()))
		}
	}
	// Re-index finalized blocks.
	curEntries, err := os.ReadDir(s.cur)
	if err != nil {
		return nil, err
	}
	for _, e := range curEntries {
		name := e.Name()
		if data, ok := strings.CutSuffix(name, ".meta"); ok {
			if _, err := os.Stat(s.cur + data); os.IsNotExist(err) {
				_ = os.Remove(s.cur + name)
			}
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
		path := s.cur + name
		mi, err := os.Stat(path + ".meta")
		if err != nil && !os.IsNotExist(err) {
			return nil, err
		}
		if err != nil || mi.Size() != int64(sumsLen(fi.Size())) {
			_ = os.Remove(path)
			_ = os.Remove(path + ".meta")
			continue
		}
		b.NumBytes = fi.Size()
		s.reps[b.ID] = &diskReplica{
			info: ReplicaInfo{Block: b, State: Finalized, Len: fi.Size()},
			path: path,
		}
	}
	return s, nil
}

// blockPath is dir + blk_<id>_<gen>, for a dir that ends in a separator.
func blockPath(dir string, b block.Block) string {
	var buf [128]byte
	p := strconv.AppendInt(append(append(buf[:0], dir...), "blk_"...), int64(b.ID), 10)
	return string(strconv.AppendUint(append(p, '_'), uint64(b.Gen), 10))
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
	w.store.mu.Lock()
	defer w.store.mu.Unlock()
	if err := w.store.ours(w.rep); err != nil {
		return err
	}
	// A recycled file may run on past the replica's bytes.
	if err := w.f.Truncate(w.rep.info.Len); err != nil {
		return err
	}
	if err := w.f.Close(); err != nil {
		return err
	}
	w.committed = true
	w.sums.finish()
	defer w.sums.release()
	var meta []byte
	if w.sums.raw != nil {
		meta = *w.sums.raw
	}
	// The .meta lands first: a crash between the two leaves an orphan
	// .meta, which boot removes, never a finalized block without one.
	final := blockPath(w.store.cur, w.rep.info.Block)
	err := os.WriteFile(final+".meta", meta, 0o644)
	if err == nil {
		err = syscall.Rename(w.rep.path, final)
	}
	if err != nil {
		os.Remove(final + ".meta")
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
	if w.store.ours(w.rep) != nil {
		return nil // displaced or deleted: its file went then
	}
	delete(w.store.reps, w.rep.info.Block.ID)
	return os.Remove(w.rep.path)
}

// Create implements Store.
func (s *DiskStore) Create(b block.Block, overwrite bool) (BlockWriter, error) {
	rep := &diskReplica{
		info: ReplicaInfo{Block: b, State: Temp},
		path: blockPath(s.tmp, b),
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	old, err := s.admit(rep, overwrite)
	if err != nil {
		return nil, err
	}
	if old != nil {
		// Unlinked first: a writer displaced at this generation keeps its file.
		os.Remove(old.path)
		os.Remove(old.path + ".meta")
	}
	f, err := s.newFile(rep.path)
	if err != nil {
		delete(s.reps, b.ID)
		return nil, err
	}
	return &diskWriter{store: s, rep: rep, f: f}, nil
}

// newFile creates a temp replica's file at path: the last file recycled,
// to be written over from offset 0, if the pool holds one. Caller holds
// mu.
func (s *DiskStore) newFile(path string) (*os.File, error) {
	if s.nfree > 0 {
		s.nfree--
		if syscall.Rename(s.free[s.nfree], path) == nil {
			return os.OpenFile(path, os.O_WRONLY, 0)
		}
	}
	return os.Create(path)
}

// Open implements Store: the .meta file is read once, into a pooled
// buffer the returned reader holds until Close, and must be exactly one
// checksum per chunk of the block file. The reader pins the replica, so
// a Delete before its Close unlinks the file rather than recycling it.
func (s *DiskStore) Open(id block.ID) (Replica, int64, error) {
	s.mu.Lock()
	rep, err := s.finalized(id)
	if err != nil {
		s.mu.Unlock()
		return nil, 0, err
	}
	rep.pins++
	path, length := rep.path, rep.info.Len
	s.mu.Unlock()
	sums, err := readMeta(id, path+".meta", length)
	if err != nil {
		s.unpin(rep)
		return nil, 0, err
	}
	f, err := os.Open(path)
	if err != nil {
		bufpool.Put(sums)
		s.unpin(rep)
		return nil, 0, err
	}
	return &diskReader{store: s, rep: rep, f: f, sums: sums}, length, nil
}

func (s *DiskStore) unpin(rep *diskReplica) {
	s.mu.Lock()
	rep.pins--
	s.mu.Unlock()
}

// readMeta reads a replica's checksum file into a pooled buffer, which
// must come out exactly sumsLen(length) bytes long. The buffer has room
// for one byte more, so a file that is too long shows as a full read.
func readMeta(id block.ID, path string, length int64) (*[]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	want := sumsLen(length)
	bp := bufpool.Get(want + 1)
	n, err := io.ReadFull(f, *bp)
	if err != nil && err != io.EOF && err != io.ErrUnexpectedEOF {
		bufpool.Put(bp)
		return nil, err
	}
	if n != want {
		bufpool.Put(bp)
		if n > want {
			return nil, fmt.Errorf("%w: blk_%d: %s is longer than %d bytes", ErrCorrupt, id, filepath.Base(path), want)
		}
		return nil, fmt.Errorf("%w: blk_%d: %s holds %d of %d bytes", ErrCorrupt, id, filepath.Base(path), n, want)
	}
	*bp = (*bp)[:want]
	return bp, nil
}

// diskReader reads a finalized block file, with the checksums Open read
// from its .meta.
type diskReader struct {
	store *DiskStore
	rep   *diskReplica
	f     *os.File
	sums  *[]byte // pooled; nil once closed
}

func (r *diskReader) Read(p []byte) (int, error) { return r.f.Read(p) }

func (r *diskReader) Seek(offset int64, whence int) (int64, error) {
	return r.f.Seek(offset, whence)
}

func (r *diskReader) RawSums() []byte { return *r.sums }

func (r *diskReader) Close() error {
	if r.sums == nil {
		return nil
	}
	bufpool.Put(r.sums)
	r.sums = nil
	err := r.f.Close()
	r.store.unpin(r.rep)
	return err
}

// Sums returns a finalized replica's checksums decoded to integers. The
// datanode serves RawSums from Open instead; this remains for the storage
// probe in bench/layers.go, which names it.
func (s *DiskStore) Sums(id block.ID) ([]uint32, error) {
	r, _, err := s.Open(id)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	return checksum.Decode(r.RawSums())
}

// Delete implements Store. A finalized, unpinned replica's file goes to
// the pool while it has room; any other is unlinked, and whoever still
// holds it open — a temp replica's writer, a reader — keeps the inode.
func (s *DiskStore) Delete(id block.ID) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	rep, err := s.get(id)
	if err != nil {
		return err
	}
	delete(s.reps, id)
	os.Remove(rep.path + ".meta")
	if rep.info.State == Finalized && rep.pins == 0 && s.nfree < freeFiles &&
		syscall.Rename(rep.path, s.free[s.nfree]) == nil {
		s.nfree++
		return nil
	}
	return os.Remove(rep.path)
}

// VerifyBlock re-reads a finalized replica and checks it against its
// stored meta checksums.
func (s *DiskStore) VerifyBlock(id block.ID) error { return verify(s, id) }

var _ Store = (*DiskStore)(nil)
