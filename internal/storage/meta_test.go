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

// A DiskStore replica's checksums live in its .meta file, which must hold
// exactly one wire checksum per chunk of the block file. These tests hold
// the two places that read it to that: the boot-time index, which drops a
// replica whose .meta has the wrong length, and Open, which refuses one.

// metaPath is where a DiskStore rooted at dir keeps b's checksums.
func metaPath(dir string, b block.Block) string {
	return filepath.Join(dir, "cur", blockFileName(b)+".meta")
}

func TestReopenDropsReplicaWithBadMeta(t *testing.T) {
	const sum = checksum.BytesPerChecksum
	dir := t.TempDir()
	s1, err := NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 5*chunkSize+100)
	rand.New(rand.NewSource(1)).Read(data)
	good := block.Block{ID: 1, Gen: 1}
	bad := map[string]block.Block{
		"missing":       {ID: 2, Gen: 1},
		"one sum short": {ID: 3, Gen: 1},
		"one sum long":  {ID: 4, Gen: 1},
	}
	writeBlock(t, s1, good, data)
	for _, b := range bad {
		writeBlock(t, s1, b, data)
	}
	meta, err := os.ReadFile(metaPath(dir, good))
	if err != nil {
		t.Fatal(err)
	}
	for fault, b := range bad {
		path := metaPath(dir, b)
		switch fault {
		case "missing":
			err = os.Remove(path)
		case "one sum short":
			err = os.Truncate(path, int64(len(meta)-sum))
		case "one sum long":
			err = os.WriteFile(path, append(bytes.Clone(meta), 0, 0, 0, 0), 0o644)
		}
		if err != nil {
			t.Fatal(err)
		}
	}

	s2, err := NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if list := s2.Blocks(); len(list) != 1 || list[0].Block.ID != good.ID {
		t.Fatalf("Blocks() after reopen = %+v, want only blk_%d", list, good.ID)
	}
	for fault, b := range bad {
		if _, err := s2.Info(b.ID); !errors.Is(err, ErrNotFound) {
			t.Errorf("%s: replica still indexed after reopen (Info err %v)", fault, err)
		}
		if _, err := os.Stat(filepath.Join(dir, "cur", blockFileName(b))); !os.IsNotExist(err) {
			t.Errorf("%s: block file left behind (stat err %v)", fault, err)
		}
	}
	if err := s2.VerifyBlock(good.ID); err != nil {
		t.Fatal(err)
	}
	// A dropped ID is free again: the namenode may re-replicate it here.
	writeBlock(t, s2, bad["missing"], data)
}

// fuzzMaxBlock spans three scrub buffers, so VerifyBlock's windowing is
// exercised as well as the metadata checks.
const fuzzMaxBlock = 2*scrubBuf + 3*chunkSize + 17

// fuzzBlock is the block file FuzzDiskStoreMeta pairs with its metadata.
func fuzzBlock(n uint32) []byte {
	data := make([]byte, int(n%fuzzMaxBlock))
	rand.New(rand.NewSource(int64(len(data)))).Read(data)
	return data
}

// FuzzDiskStoreMeta puts arbitrary .meta bytes beside a block file of
// fuzzed length. Booting a store on them, opening, draining and scrubbing
// must never panic; the boot index keeps the replica exactly when the
// .meta has the right length; Open either refuses with ErrCorrupt or
// returns exactly the .meta's bytes; and VerifyBlock agrees with
// checksum.VerifyEncoded over the file.
func FuzzDiskStoreMeta(f *testing.F) {
	for _, n := range []uint32{0, 1, chunkSize, 5*chunkSize + 100, scrubBuf + chunkSize + 3} {
		exact := checksum.AppendEncoded(nil, fuzzBlock(n), chunkSize)
		f.Add(n, []byte{})
		f.Add(n, exact)
		if len(exact) > 0 {
			f.Add(n, exact[:len(exact)-checksum.BytesPerChecksum]) // one sum short
			f.Add(n, exact[:len(exact)-1])                         // odd byte count
		}
		f.Add(n, append(bytes.Clone(exact), 1, 2, 3, 4)) // one sum long
	}
	f.Fuzz(func(t *testing.T, n uint32, meta []byte) {
		if len(meta) > sumsLen(fuzzMaxBlock)+checksum.BytesPerChecksum {
			return // too long for any block here; disk time better spent elsewhere
		}
		data := fuzzBlock(n)
		exact := len(meta) == sumsLen(int64(len(data)))
		b := block.Block{ID: 1, Gen: 1}
		dir := t.TempDir()
		cur := filepath.Join(dir, "cur")
		if err := os.MkdirAll(cur, 0o755); err != nil {
			t.Fatal(err)
		}
		put := func(meta []byte) {
			t.Helper()
			if err := os.WriteFile(filepath.Join(cur, blockFileName(b)), data, 0o644); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(metaPath(dir, b), meta, 0o644); err != nil {
				t.Fatal(err)
			}
		}

		// Boot on the fuzzed .meta: kept exactly when its length is right.
		put(meta)
		s, err := NewDiskStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		if kept := len(s.Blocks()) == 1; kept != exact {
			t.Fatalf("boot kept the replica = %v with %d bytes of .meta for %d bytes", kept, len(meta), len(data))
		}

		// Boot on good metadata, then let the .meta go bad underneath.
		put(checksum.AppendEncoded(nil, data, chunkSize))
		if s, err = NewDiskStore(dir); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(metaPath(dir, b), meta, 0o644); err != nil {
			t.Fatal(err)
		}
		r, length, err := s.Open(b.ID)
		switch {
		case err != nil && !errors.Is(err, ErrCorrupt):
			t.Fatalf("Open = %v, want nil or ErrCorrupt", err)
		case err != nil && exact:
			t.Fatalf("Open refused a .meta of the right length: %v", err)
		case err == nil && !exact:
			r.Close()
			t.Fatalf("Open accepted %d bytes of .meta for %d bytes", len(meta), len(data))
		case err == nil:
			if !bytes.Equal(r.RawSums(), meta) {
				t.Fatal("RawSums differ from the .meta file")
			}
			got, err := io.ReadAll(r)
			r.Close()
			if err != nil || length != int64(len(data)) || !bytes.Equal(got, data) {
				t.Fatalf("drained %d of %d bytes (err %v)", len(got), length, err)
			}
		}
		want := checksum.VerifyEncoded(data, meta, chunkSize)
		if got := s.VerifyBlock(b.ID); (got == nil) != (want == nil) {
			t.Fatalf("VerifyBlock = %v, VerifyEncoded over the file = %v", got, want)
		}
	})
}
