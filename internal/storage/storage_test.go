package storage

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

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

func TestDuplicateCreate(t *testing.T) {
	for name, s := range stores(t) {
		t.Run(name, func(t *testing.T) {
			writeBlock(t, s, block.Block{ID: 4, Gen: 1}, []byte("v1"))
			if _, err := s.Create(block.Block{ID: 4, Gen: 1}, false); !errors.Is(err, ErrExists) {
				t.Fatalf("duplicate create err = %v, want ErrExists", err)
			}
			// Overwrite path (pipeline recovery re-streams the block).
			w, err := s.Create(block.Block{ID: 4, Gen: 2}, true)
			if err != nil {
				t.Fatal(err)
			}
			w.Write([]byte("v2-longer"))
			if err := w.Commit(); err != nil {
				t.Fatal(err)
			}
			w.Close()
			r, n, err := s.Open(4)
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			got, _ := io.ReadAll(r)
			if string(got) != "v2-longer" || n != 9 {
				t.Fatalf("after overwrite: %q len %d", got, n)
			}
			if info, _ := s.Info(4); info.Block.Gen != 2 {
				t.Fatalf("gen = %d, want 2", info.Block.Gen)
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

func TestMemStoreWriteDelay(t *testing.T) {
	s := NewMemStore()
	s.PerByteDelay = time.Microsecond // 1 µs/B = ~1 MB/s
	w, _ := s.Create(block.Block{ID: 30}, false)
	start := time.Now()
	w.Write(make([]byte, 20_000))
	elapsed := time.Since(start)
	w.Commit()
	w.Close()
	if elapsed < 15*time.Millisecond {
		t.Fatalf("write of 20 kB with 1µs/B delay took %v, want ≥ 20ms-ish", elapsed)
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
			r.Close()
			if err != nil || !bytes.Equal(got, data) {
				return false
			}
			// However ragged the writes, the stored checksums are the
			// one-shot checksums of the whole block.
			sums, err := s.Sums(b.ID)
			if err != nil || checksum.Verify(data, sums, checksum.DefaultChunkSize) != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestSums(t *testing.T) {
	for name, s := range stores(t) {
		t.Run(name, func(t *testing.T) {
			data := bytes.Repeat([]byte{0x5a}, 1500) // 3 chunks
			writeBlock(t, s, block.Block{ID: 40}, data)
			sums, err := s.Sums(40)
			if err != nil {
				t.Fatal(err)
			}
			if len(sums) != 3 {
				t.Fatalf("%d sums, want 3", len(sums))
			}
			// Sums must match an independent computation over the data.
			r, _, _ := s.Open(40)
			got, _ := io.ReadAll(r)
			r.Close()
			want := checksum.Sum(got, checksum.DefaultChunkSize)
			for i := range want {
				if sums[i] != want[i] {
					t.Fatalf("sum[%d] mismatch", i)
				}
			}
			// Errors: unknown and unfinalized replicas.
			if _, err := s.Sums(999); !errors.Is(err, ErrNotFound) {
				t.Fatalf("Sums(unknown) err = %v", err)
			}
			w, _ := s.Create(block.Block{ID: 41}, false)
			defer w.Close()
			w.Write([]byte("temp"))
			if _, err := s.Sums(41); !errors.Is(err, ErrNotFinalized) {
				t.Fatalf("Sums(temp) err = %v", err)
			}
		})
	}
}

func TestSumsSurviveCorruption(t *testing.T) {
	// The whole point of storing checksums: after the data rots, Sums
	// still returns the write-time values, so verification fails.
	s := NewMemStore()
	data := bytes.Repeat([]byte{1}, 1024)
	writeBlock(t, s, block.Block{ID: 50}, data)
	sums, _ := s.Sums(50)
	s.Corrupt(50, 100)
	r, _, _ := s.Open(50)
	rotted, _ := io.ReadAll(r)
	r.Close()
	if err := checksum.Verify(rotted, sums, checksum.DefaultChunkSize); err == nil {
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
	// The caller's checksums, right or wrong, are what Sums serves: flip a
	// bit in one and it must come back flipped (and the scrub must see it).
	raw[4] ^= 1
	want, _ := checksum.Decode(raw)
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
			r.Close()
			if !bytes.Equal(got, data) {
				t.Fatal("appended bytes read back differently")
			}
			sums, err := s.Sums(1)
			if err != nil || len(sums) != len(want) {
				t.Fatalf("Sums = %d entries, err %v; want %d", len(sums), err, len(want))
			}
			for i := range want {
				if sums[i] != want[i] {
					t.Fatalf("sum[%d] = %08x, want the appended %08x", i, sums[i], want[i])
				}
			}
			var mm *checksum.ErrMismatch
			if err := s.(interface{ VerifyBlock(block.ID) error }).VerifyBlock(1); !errors.As(err, &mm) || mm.Chunk != 1 {
				t.Fatalf("scrub = %v, want a mismatch in chunk 1 (the flipped checksum)", err)
			}
		})
	}
}
