package storage

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/block"
	"repro/internal/checksum"
)

// A DiskStore recycles deleted block files (the package doc's rule), so
// a file a new replica overwrites must be one nobody reads any more, and
// whatever the old block left past the new one's end must go. These
// tests drive each side of that, and the boot that starts the pool
// empty. Run them under -race.

// blockFileName is b's file name in tmp/ and cur/.
func blockFileName(b block.Block) string { return blockPath("", b) }

// fileSize is path's size, or -1 if it cannot be stat'ed.
func fileSize(path string) int64 {
	fi, err := os.Stat(path)
	if err != nil {
		return -1
	}
	return fi.Size()
}

func randomBytes(seed int64, n int) []byte {
	p := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(p)
	return p
}

// TestDiskStoreReadOutlivesDeleteAndOverwrite is the store-level twin of
// cluster.TestReadOutlivesDeleteAndOverwrite: a reader opens a replica
// and reads its first packet; the replica is deleted (or displaced by a
// committed poison replica at the next generation); the store churns
// through twice the pool's worth of poison blocks of the same size,
// each created, committed and deleted. The reader must still read the
// original bytes and checksums.
func TestDiskStoreReadOutlivesDeleteAndOverwrite(t *testing.T) {
	const blockBytes, packet = 1 << 20, 64 << 10
	s, err := NewDiskStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	poison := bytes.Repeat([]byte{0xDB}, blockBytes)
	for round, unmap := range []string{"delete", "overwrite", "delete", "overwrite"} {
		id := block.ID(round + 1)
		data := randomBytes(int64(round), blockBytes)
		writeBlock(t, s, block.Block{ID: id, Gen: 1}, data)
		r, n, err := s.Open(id)
		if err != nil || n != blockBytes {
			t.Fatalf("round %d: Open = %d bytes, %v", round, n, err)
		}
		got := make([]byte, packet, blockBytes)
		if _, err := io.ReadFull(r, got); err != nil {
			t.Fatal(err)
		}
		switch unmap {
		case "delete":
			err = s.Delete(id)
		case "overwrite":
			var w BlockWriter
			if w, err = s.Create(block.Block{ID: id, Gen: 2}, true); err == nil {
				if _, err = w.Write(poison); err == nil {
					err = w.Commit()
				}
				w.Close()
			}
		}
		if err != nil {
			t.Fatal(err)
		}
		churn := make([]block.ID, 2*freeFiles)
		for k := range churn {
			churn[k] = block.ID(1000 + 100*round + k)
			writeBlock(t, s, block.Block{ID: churn[k], Gen: 1}, poison)
		}
		for _, c := range churn {
			if err := s.Delete(c); err != nil {
				t.Fatal(err)
			}
		}
		rest, err := io.ReadAll(r)
		got = append(got, rest...)
		sums := bytes.Clone(r.RawSums())
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
		if err != nil || !bytes.Equal(got, data) {
			t.Fatalf("round %d (%s): the reader read %d bytes (%v) that are not the replica it opened", round, unmap, len(got), err)
		}
		if !bytes.Equal(sums, checksum.AppendEncoded(nil, data, chunkSize)) {
			t.Fatalf("round %d (%s): the reader's checksums are not the replica's", round, unmap)
		}
	}
}

// TestDiskStoreRecycledFileIsCutToTheBlock: a 1 MB + 300 B replica written
// over a recycled 8 MB file must be exactly its own bytes — in Info, on
// disk, in its .meta and to the scrub — and stay so after a restart,
// which sizes a replica by its file.
func TestDiskStoreRecycledFileIsCutToTheBlock(t *testing.T) {
	dir := t.TempDir()
	s, err := NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	writeBlock(t, s, block.Block{ID: 1, Gen: 1}, bytes.Repeat([]byte{0xEE}, 8<<20))
	if err := s.Delete(1); err != nil {
		t.Fatal(err)
	}
	if n := fileSize(s.free[0]); n != 8<<20 {
		t.Fatalf("the pool's file is %d bytes, want the deleted 8 MB block", n)
	}
	b := block.Block{ID: 2, Gen: 1}
	data := randomBytes(2, 1<<20+300)
	writeBlock(t, s, b, data)
	if _, err := os.Stat(s.free[0]); !os.IsNotExist(err) {
		t.Fatalf("the new replica did not take the recycled file (stat: %v)", err)
	}
	reopened, err := NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	for name, st := range map[string]*DiskStore{"the store": s, "the store re-opened": reopened} {
		if info, err := st.Info(b.ID); err != nil || info.Len != int64(len(data)) || info.Block.NumBytes != int64(len(data)) {
			t.Fatalf("%s: Info = %+v, %v; want %d bytes", name, info, err, len(data))
		}
		if n := fileSize(filepath.Join(dir, "cur", blockFileName(b))); n != int64(len(data)) {
			t.Fatalf("%s: the block file is %d bytes, want %d", name, n, len(data))
		}
		if n := fileSize(metaPath(dir, b)); n != int64(sumsLen(int64(len(data)))) {
			t.Fatalf("%s: the .meta is %d bytes, want %d", name, n, sumsLen(int64(len(data))))
		}
		if err := st.VerifyBlock(b.ID); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		r, _, err := st.Open(b.ID)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got, err := io.ReadAll(r)
		r.Close()
		if err != nil || !bytes.Equal(got, data) {
			t.Fatalf("%s reads back %d bytes (%v), not the replica's %d", name, len(got), err, len(data))
		}
	}
}

// TestDiskStoreBootEmptiesThePool: whatever a previous run left in free/
// — recycled files, or anything named like a block — is removed at boot
// and never indexed, and the store then writes and recycles as usual.
func TestDiskStoreBootEmptiesThePool(t *testing.T) {
	dir := t.TempDir()
	s, err := NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	data := randomBytes(3, 3*chunkSize+5)
	for id := block.ID(1); id <= 3; id++ {
		writeBlock(t, s, block.Block{ID: id, Gen: 1}, data)
	}
	for id := block.ID(1); id <= 3; id++ {
		if err := s.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	stray := filepath.Join(dir, "free", blockFileName(block.Block{ID: 9, Gen: 1}))
	if err := os.WriteFile(stray, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(stray+".meta", checksum.AppendEncoded(nil, data, chunkSize), 0o644); err != nil {
		t.Fatal(err)
	}
	if left, err := os.ReadDir(filepath.Join(dir, "free")); err != nil || len(left) != 5 {
		t.Fatalf("free/ holds %d files before the restart (%v), want 5", len(left), err)
	}

	s, err = NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if left, err := os.ReadDir(filepath.Join(dir, "free")); err != nil || len(left) != 0 {
		t.Fatalf("free/ holds %d files after the restart (%v), want none", len(left), err)
	}
	if list, used := s.Blocks(), s.UsedBytes(); len(list) != 0 || used != 0 {
		t.Fatalf("the restarted store holds %+v, %d bytes; want nothing", list, used)
	}
	for _, id := range []block.ID{1, 2, 3, 9} {
		if _, err := s.Info(id); !errors.Is(err, ErrNotFound) {
			t.Fatalf("Info(%d) after the restart = %v, want ErrNotFound", id, err)
		}
	}
	b := block.Block{ID: 4, Gen: 1}
	writeBlock(t, s, b, data)
	if err := s.VerifyBlock(b.ID); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete(b.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(s.free[0]); err != nil {
		t.Fatalf("the restarted store does not recycle: %v", err)
	}
}

// TestDiskStoreCommitWritesMetaFirst: Commit writes the .meta before it
// renames the block into cur/, so a crash in between leaves an orphan
// .meta, which boot removes, and never a finalized block without
// checksums; a Commit whose rename fails removes the .meta itself.
func TestDiskStoreCommitWritesMetaFirst(t *testing.T) {
	dir := t.TempDir()
	s, err := NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	data := randomBytes(4, 5*chunkSize+100)
	good, lost := block.Block{ID: 1, Gen: 1}, block.Block{ID: 2, Gen: 1}
	writeBlock(t, s, good, data)

	// The rename fails: the temp file is gone from under the writer.
	w, err := s.Create(lost, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, "tmp", blockFileName(lost))); err != nil {
		t.Fatal(err)
	}
	if err := w.Commit(); err == nil {
		t.Fatal("Commit succeeded without a block file to rename")
	}
	w.Close()
	if _, err := os.Stat(metaPath(dir, lost)); !os.IsNotExist(err) {
		t.Fatalf("a failed Commit left its .meta behind (stat: %v)", err)
	}

	// The crash: a .meta in cur/ whose block never got there.
	if err := os.WriteFile(metaPath(dir, lost), checksum.AppendEncoded(nil, data, chunkSize), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err = NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(metaPath(dir, lost)); !os.IsNotExist(err) {
		t.Fatalf("boot left the orphan .meta behind (stat: %v)", err)
	}
	if list := s.Blocks(); len(list) != 1 || list[0].Block.ID != good.ID {
		t.Fatalf("Blocks() after the restart = %+v, want only blk_%d", list, good.ID)
	}
	if err := s.VerifyBlock(good.ID); err != nil {
		t.Fatal(err)
	}
	writeBlock(t, s, lost, data)
	if err := s.VerifyBlock(lost.ID); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkDiskStoreChurn is one DiskStore block's life as a datanode
// lives it under tcp_write_r3: Create, Append an 8 MB block in 64 KB
// packets with their checksums, Commit, Close, then Delete. A deleted
// block's file is the next block's to overwrite, so this is the store's
// steady state under churn.
//
//	go test -run '^$' -bench DiskStoreChurn -benchmem ./internal/storage
func BenchmarkDiskStoreChurn(b *testing.B) {
	const blockBytes, packet = 8 << 20, 64 << 10
	s, err := NewDiskStore(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	data := make([]byte, packet)
	for i := range data {
		data[i] = byte(i * 7)
	}
	sums := checksum.AppendEncoded(nil, data, chunkSize)
	b.SetBytes(blockBytes)
	b.ReportAllocs()
	b.ResetTimer()
	for i := range b.N {
		id := block.ID(i + 1)
		w, err := s.Create(block.Block{ID: id, Gen: 1}, false)
		if err != nil {
			b.Fatal(err)
		}
		w.(SizeHinter).SizeHint(blockBytes)
		for off := 0; off < blockBytes; off += packet {
			if err := w.Append(data, sums); err != nil {
				b.Fatal(err)
			}
		}
		if err := w.Commit(); err != nil {
			b.Fatal(err)
		}
		if err := w.Close(); err != nil {
			b.Fatal(err)
		}
		if err := s.Delete(id); err != nil {
			b.Fatal(err)
		}
	}
}
