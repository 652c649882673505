package storage

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/block"
	"repro/internal/checksum"
)

// stores returns both backends so every behaviour test runs against each.
func stores(t *testing.T) map[string]Store {
	t.Helper()
	disk, err := NewDiskStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return map[string]Store{"mem": NewMemStore(), "disk": disk}
}

func writeBlock(t *testing.T, s Store, b block.Block, data []byte) {
	t.Helper()
	w, err := s.Create(b, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestCreateCommitOpen(t *testing.T) {
	for name, s := range stores(t) {
		t.Run(name, func(t *testing.T) {
			b := block.Block{ID: 1, Gen: 1}
			data := bytes.Repeat([]byte("hdfs"), 1000)
			writeBlock(t, s, b, data)

			info, err := s.Info(1)
			if err != nil {
				t.Fatal(err)
			}
			if info.State != Finalized || info.Len != int64(len(data)) {
				t.Fatalf("info = %+v", info)
			}
			r, n, err := s.Open(1)
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			if n != int64(len(data)) {
				t.Fatalf("length = %d, want %d", n, len(data))
			}
			got, err := io.ReadAll(r)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, data) {
				t.Fatal("read-back mismatch")
			}
		})
	}
}

func TestOpenTempFails(t *testing.T) {
	for name, s := range stores(t) {
		t.Run(name, func(t *testing.T) {
			w, err := s.Create(block.Block{ID: 2}, false)
			if err != nil {
				t.Fatal(err)
			}
			defer w.Close()
			w.Write([]byte("partial"))
			if _, _, err := s.Open(2); !errors.Is(err, ErrNotFinalized) {
				t.Fatalf("Open(temp) err = %v, want ErrNotFinalized", err)
			}
		})
	}
}

// TestAllocInfoMiss: a lookup's miss — most of the datanode's
// invalidation probes — costs at most the error itself, and the error
// still reads and matches as it always has.
func TestAllocInfoMiss(t *testing.T) {
	for name, s := range stores(t) {
		t.Run(name, func(t *testing.T) {
			var err error
			if got := testing.AllocsPerRun(100, func() { _, err = s.Info(99) }); got > 1 {
				t.Errorf("Info miss: %.1f allocs, budget 1", got)
			}
			if !errors.Is(err, ErrNotFound) || err.Error() != "storage: block not found: blk_99" {
				t.Errorf("Info miss err = %q, want ErrNotFound for blk_99", err)
			}
			w, err := s.Create(block.Block{ID: 3}, false)
			if err != nil {
				t.Fatal(err)
			}
			defer w.Close()
			if _, _, err := s.Open(3); !errors.Is(err, ErrNotFinalized) || err.Error() != "storage: block not finalized: blk_3" {
				t.Errorf("Open(temp) err = %q, want ErrNotFinalized for blk_3", err)
			}
		})
	}
}

func TestAbortDiscards(t *testing.T) {
	for name, s := range stores(t) {
		t.Run(name, func(t *testing.T) {
			w, _ := s.Create(block.Block{ID: 3}, false)
			w.Write([]byte("doomed"))
			w.Close() // no Commit: abort
			if _, err := s.Info(3); !errors.Is(err, ErrNotFound) {
				t.Fatalf("Info after abort err = %v, want ErrNotFound", err)
			}
		})
	}
}

// TestDuplicateCreate: without overwrite any replica refuses a Create;
// with it the generation fence decides. What recovery committed, or is
// writing, never gives way to an older generation, and a finalized
// replica not to its own.
func TestDuplicateCreate(t *testing.T) {
	cases := []struct {
		name      string
		held      block.GenStamp // blk_4's generation already in the store
		finalized bool
		gen       block.GenStamp // the Create's
		overwrite bool
		want      error // nil: the Create displaces the held replica
	}{
		{"no overwrite", 1, true, 1, false, ErrExists},
		{"recovery over a finalized replica", 1, true, 2, true, nil},
		{"recovery over a temp replica", 1, false, 2, true, nil},
		{"same generation over a temp replica", 2, false, 2, true, nil},
		{"stale over a finalized replica", 3, true, 2, true, ErrStale},
		{"same generation over a finalized replica", 2, true, 2, true, ErrStale},
		{"stale over a temp replica", 3, false, 2, true, ErrStale},
	}
	for _, name := range []string{"mem", "disk"} {
		t.Run(name, func(t *testing.T) {
			for _, tc := range cases {
				t.Run(tc.name, func(t *testing.T) {
					s := stores(t)[name]
					old, err := s.Create(block.Block{ID: 4, Gen: tc.held}, false)
					if err != nil {
						t.Fatal(err)
					}
					defer old.Close()
					old.Write([]byte("v1"))
					if tc.finalized {
						if err := old.Commit(); err != nil {
							t.Fatal(err)
						}
					}
					w, err := s.Create(block.Block{ID: 4, Gen: tc.gen}, tc.overwrite)
					if !errors.Is(err, tc.want) {
						t.Fatalf("Create(gen %d) over gen %d = %v, want %v", tc.gen, tc.held, err, tc.want)
					}
					if err != nil {
						if info, err := s.Info(4); err != nil || info.Block.Gen != tc.held || (info.State == Finalized) != tc.finalized {
							t.Fatalf("after the refusal the store holds %+v (%v), want the gen-%d replica as it was", info, err, tc.held)
						}
						return
					}
					// Overwrite path (pipeline recovery re-streams the block).
					w.Write([]byte("v2-longer"))
					if err := w.Commit(); err != nil {
						t.Fatal(err)
					}
					w.Close()
					old.Close() // the displaced writer's abort leaves the new replica alone
					r, n, err := s.Open(4)
					if err != nil {
						t.Fatal(err)
					}
					defer r.Close()
					got, _ := io.ReadAll(r)
					if string(got) != "v2-longer" || n != 9 {
						t.Fatalf("after overwrite: %q len %d", got, n)
					}
					if info, _ := s.Info(4); info.Block.Gen != tc.gen {
						t.Fatalf("gen = %d, want %d", info.Block.Gen, tc.gen)
					}
				})
			}
		})
	}
}

func TestDelete(t *testing.T) {
	for name, s := range stores(t) {
		t.Run(name, func(t *testing.T) {
			writeBlock(t, s, block.Block{ID: 5}, []byte("x"))
			if err := s.Delete(5); err != nil {
				t.Fatal(err)
			}
			if err := s.Delete(5); !errors.Is(err, ErrNotFound) {
				t.Fatalf("second delete err = %v", err)
			}
			if _, _, err := s.Open(5); !errors.Is(err, ErrNotFound) {
				t.Fatalf("open after delete err = %v", err)
			}
		})
	}
}

func TestBlocksListingAndUsedBytes(t *testing.T) {
	for name, s := range stores(t) {
		t.Run(name, func(t *testing.T) {
			writeBlock(t, s, block.Block{ID: 9}, make([]byte, 100))
			writeBlock(t, s, block.Block{ID: 7}, make([]byte, 50))
			w, _ := s.Create(block.Block{ID: 8}, false) // temp: listed in bytes, not Blocks
			w.Write(make([]byte, 25))
			defer w.Close()

			list := s.Blocks()
			if len(list) != 2 || list[0].Block.ID != 7 || list[1].Block.ID != 9 {
				t.Fatalf("Blocks() = %+v", list)
			}
			if got := s.UsedBytes(); got != 175 {
				t.Fatalf("UsedBytes = %d, want 175", got)
			}
		})
	}
}

func TestWriteAfterCommit(t *testing.T) {
	for name, s := range stores(t) {
		t.Run(name, func(t *testing.T) {
			w, _ := s.Create(block.Block{ID: 10}, false)
			w.Write([]byte("a"))
			w.Commit()
			if _, err := w.Write([]byte("b")); !errors.Is(err, ErrCommitted) {
				t.Fatalf("write after commit err = %v", err)
			}
			if err := w.Commit(); !errors.Is(err, ErrCommitted) {
				t.Fatalf("double commit err = %v", err)
			}
		})
	}
}

func TestVerifyBlock(t *testing.T) {
	mem := NewMemStore()
	writeBlock(t, mem, block.Block{ID: 11}, bytes.Repeat([]byte{7}, 4096))
	if err := mem.VerifyBlock(11); err != nil {
		t.Fatal(err)
	}
	if err := mem.Corrupt(11, 1000); err != nil {
		t.Fatal(err)
	}
	if err := mem.VerifyBlock(11); err == nil {
		t.Fatal("VerifyBlock passed on corrupted replica")
	}
	// A mismatch past the scrub's first buffer names its chunk in the
	// replica, not in the buffer.
	writeBlock(t, mem, block.Block{ID: 13}, bytes.Repeat([]byte{3}, 3*scrubBuf))
	if err := mem.Corrupt(13, 2*scrubBuf+1000); err != nil {
		t.Fatal(err)
	}
	var mm *checksum.ErrMismatch
	if err := mem.VerifyBlock(13); !errors.As(err, &mm) || mm.Chunk != (2*scrubBuf+1000)/checksum.DefaultChunkSize {
		t.Fatalf("VerifyBlock = %v, want a mismatch in chunk %d", err, (2*scrubBuf+1000)/checksum.DefaultChunkSize)
	}

	disk, err := NewDiskStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	writeBlock(t, disk, block.Block{ID: 12}, bytes.Repeat([]byte{9}, 4096))
	if err := disk.VerifyBlock(12); err != nil {
		t.Fatal(err)
	}
}

func TestDiskStoreReindex(t *testing.T) {
	dir := t.TempDir()
	s1, err := NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	writeBlock(t, s1, block.Block{ID: 20, Gen: 3}, []byte("persisted"))
	// Leave a dangling temp replica to be cleaned on restart.
	w, _ := s1.Create(block.Block{ID: 21}, false)
	w.Write([]byte("orphan"))

	s2, err := NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	info, err := s2.Info(20)
	if err != nil {
		t.Fatal(err)
	}
	if info.State != Finalized || info.Block.Gen != 3 || info.Len != 9 {
		t.Fatalf("reindexed info = %+v", info)
	}
	if _, err := s2.Info(21); !errors.Is(err, ErrNotFound) {
		t.Fatalf("orphan temp replica survived restart: %v", err)
	}
	if err := s2.VerifyBlock(20); err != nil {
		t.Fatal(err)
	}
}

// Property: any sequence of chunked writes followed by commit reads back
// bit-exactly on both backends.
func TestQuickWriteReadBack(t *testing.T) {
	dir := t.TempDir()
	disk, err := NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	mem := NewMemStore()
	var nextID int64
	f := func(seed int64, sizeRaw uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		data := make([]byte, int(sizeRaw)%5000)
		rng.Read(data)
		for _, s := range []Store{mem, disk} {
			nextID++
			b := block.Block{ID: block.ID(nextID), Gen: 1}
			w, err := s.Create(b, false)
			if err != nil {
				return false
			}
			for off := 0; off < len(data); {
				n := rng.Intn(600) + 1
				if off+n > len(data) {
					n = len(data) - off
				}
				if _, err := w.Write(data[off : off+n]); err != nil {
					return false
				}
				off += n
			}
			if w.Commit() != nil || w.Close() != nil {
				return false
			}
			r, n, err := s.Open(b.ID)
			if err != nil || n != int64(len(data)) {
				return false
			}
			got, err := io.ReadAll(r)
			// However ragged the writes, the stored checksums are the
			// one-shot checksums of the whole block.
			sums := bytes.Clone(r.RawSums())
			r.Close()
			if err != nil || !bytes.Equal(got, data) || !bytes.Equal(sums, checksum.AppendEncoded(nil, data, checksum.DefaultChunkSize)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestSums: an open replica hands back its checksums in wire form, one
// per chunk, exactly as an independent computation over its bytes.
func TestSums(t *testing.T) {
	for name, s := range stores(t) {
		t.Run(name, func(t *testing.T) {
			data := bytes.Repeat([]byte{0x5a}, 1500) // 3 chunks
			writeBlock(t, s, block.Block{ID: 40}, data)
			r, _, err := s.Open(40)
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			sums := r.RawSums()
			if len(sums) != 3*checksum.BytesPerChecksum {
				t.Fatalf("%d bytes of sums, want 3 checksums", len(sums))
			}
			got, _ := io.ReadAll(r)
			if want := checksum.AppendEncoded(nil, got, checksum.DefaultChunkSize); !bytes.Equal(sums, want) {
				t.Fatalf("sums %x, want %x", sums, want)
			}
		})
	}
}

func TestSumsSurviveCorruption(t *testing.T) {
	// The whole point of storing checksums: after the data rots, Open
	// still returns the write-time values, so verification fails.
	s := NewMemStore()
	data := bytes.Repeat([]byte{1}, 1024)
	writeBlock(t, s, block.Block{ID: 50}, data)
	s.Corrupt(50, 100)
	r, _, _ := s.Open(50)
	defer r.Close()
	rotted, _ := io.ReadAll(r)
	if err := checksum.VerifyEncoded(rotted, r.RawSums(), checksum.DefaultChunkSize); err == nil {
		t.Fatal("write-time sums verified rotted data")
	}
}

// TestSizeHintIsAdvisory: the hint comes off the wire, so an absurd one
// must buy a bounded preallocation, not the process's death (at 19afe22
// MemStore asked the allocator for 512 GB and the test binary died of
// "runtime: out of memory"), and must not bound what the replica takes.
func TestSizeHintIsAdvisory(t *testing.T) {
	for name, s := range stores(t) {
		t.Run(name, func(t *testing.T) {
			data := bytes.Repeat([]byte{0x6b}, 1<<10)
			w, err := s.Create(block.Block{ID: 1, Gen: 1}, false)
			if err != nil {
				t.Fatal(err)
			}
			w.(SizeHinter).SizeHint(1 << 39)
			w.(SizeHinter).SizeHint(-1)
			if _, err := w.Write(data); err != nil {
				t.Fatal(err)
			}
			if err := w.Commit(); err != nil {
				t.Fatal(err)
			}
			w.Close()
			r, n, err := s.Open(1)
			if err != nil {
				t.Fatal(err)
			}
			got, err := io.ReadAll(r)
			r.Close()
			if err != nil || n != int64(len(data)) || !bytes.Equal(got, data) {
				t.Fatalf("read back %d of %d bytes, err %v", len(got), n, err)
			}
			if err := s.Delete(1); err != nil {
				t.Fatal(err)
			}
		})
	}
	// A replica that outgrows a small hint keeps growing.
	mem := NewMemStore()
	data := make([]byte, 3<<20)
	rand.New(rand.NewSource(5)).Read(data)
	w, _ := mem.Create(block.Block{ID: 2, Gen: 1}, false)
	w.(SizeHinter).SizeHint(4096)
	for off := 0; off < len(data); off += 64 << 10 {
		if _, err := w.Write(data[off : off+64<<10]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	w.Close()
	if err := mem.VerifyBlock(2); err != nil {
		t.Fatal(err)
	}
}

// TestAppendKeepsTheGivenChecksums: Append stores bytes and checksums as
// handed over — it is the caller who verified them — and holds the line
// on chunk alignment, on both backends.
func TestAppendKeepsTheGivenChecksums(t *testing.T) {
	const cs = checksum.DefaultChunkSize
	data := make([]byte, 5*cs+100)
	rand.New(rand.NewSource(3)).Read(data)
	raw := checksum.AppendEncoded(nil, data, cs)
	// The caller's checksums, right or wrong, are what Open serves: flip a
	// bit in one and it must come back flipped (and the scrub must see it).
	raw[4] ^= 1
	for name, s := range stores(t) {
		t.Run(name, func(t *testing.T) {
			w, err := s.Create(block.Block{ID: 1, Gen: 1}, false)
			if err != nil {
				t.Fatal(err)
			}
			defer w.Close()
			if err := w.Append(data[:2*cs], raw[:7]); !errors.Is(err, ErrMisaligned) {
				t.Fatalf("Append with 7 checksum bytes for 2 chunks = %v, want ErrMisaligned", err)
			}
			// First two chunks through memory the store lends (if it has any),
			// the rest from the caller's own.
			first := data[:2*cs]
			if lent := w.Lend(0, len(first)); lent != nil {
				if name == "disk" {
					t.Fatal("a DiskStore writer lent memory")
				}
				first = lent[:copy(lent, first)]
			} else if name == "mem" {
				t.Fatal("a MemStore writer declined to lend its own tail")
			}
			if w.Lend(1, cs) != nil {
				t.Fatal("Lend at an offset that is not the replica's end")
			}
			if err := w.Append(first, raw[:2*4]); err != nil {
				t.Fatal(err)
			}
			if err := w.Append(data[2*cs:], raw[2*4:]); err != nil {
				t.Fatal(err)
			}
			// The replica now ends mid-chunk: nothing more fits.
			if err := w.Append(data[:cs], raw[:4]); !errors.Is(err, ErrMisaligned) {
				t.Fatalf("Append after a short tail = %v, want ErrMisaligned", err)
			}
			if _, err := w.Write(data[:1]); !errors.Is(err, ErrMisaligned) {
				t.Fatalf("Write after an appended short tail = %v, want ErrMisaligned", err)
			}
			if info, _ := s.Info(1); info.Len != int64(len(data)) {
				t.Fatalf("Len %d after the refusals, want %d", info.Len, len(data))
			}
			if err := w.Commit(); err != nil {
				t.Fatal(err)
			}
			r, _, err := s.Open(1)
			if err != nil {
				t.Fatal(err)
			}
			got, _ := io.ReadAll(r)
			sums := bytes.Clone(r.RawSums())
			r.Close()
			if !bytes.Equal(got, data) {
				t.Fatal("appended bytes read back differently")
			}
			if !bytes.Equal(sums, raw) {
				t.Fatalf("RawSums = %x, want the appended %x", sums, raw)
			}
			var mm *checksum.ErrMismatch
			if err := s.(interface{ VerifyBlock(block.ID) error }).VerifyBlock(1); !errors.As(err, &mm) || mm.Chunk != 1 {
				t.Fatalf("scrub = %v, want a mismatch in chunk 1 (the flipped checksum)", err)
			}
		})
	}
}
