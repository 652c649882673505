package storage

import (
	"bytes"
	"errors"
	"io"
	"runtime"
	"sync"
	"testing"

	"repro/internal/block"
	"repro/internal/checksum"
)

// MemStore replica buffers come from bufpool, so who may recycle one,
// and when, is a correctness rule: a buffer returned while anybody can
// still touch it — or returned twice — ends up behind two replicas at
// once. These tests drive each way a replica leaves the store and then
// check that old and new bytes stay apart. Run them under -race.

const poolBlock = 1 << 20 // one size class, so a recycled buffer is the next one handed out

func pattern(b byte) []byte { return bytes.Repeat([]byte{b}, poolBlock) }

// writeHinted writes data the way a datanode does: SizeHint, packets,
// Commit, Close.
func writeHinted(t *testing.T, s *MemStore, id block.ID, data []byte) {
	t.Helper()
	w, err := s.Create(block.Block{ID: id, Gen: 1}, false)
	if err != nil {
		t.Fatal(err)
	}
	w.(SizeHinter).SizeHint(int64(len(data)))
	for off := 0; off < len(data); off += 64 << 10 {
		if _, err := w.Write(data[off:min(off+64<<10, len(data))]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// checkReplica reads id back and scrubs it against its commit-time sums.
func checkReplica(t *testing.T, s *MemStore, id block.ID, want []byte) {
	t.Helper()
	r, _, err := s.Open(id)
	if err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(r)
	sumErr := checksum.VerifyEncoded(want, r.RawSums(), checksum.DefaultChunkSize)
	r.Close()
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("blk_%d: read back %d bytes (err %v) that differ from what was written", id, len(got), err)
	}
	if sumErr != nil {
		t.Fatalf("blk_%d: stored sums do not match the written bytes: %v", id, sumErr)
	}
	if err := s.VerifyBlock(id); err != nil {
		t.Fatalf("blk_%d: %v", id, err)
	}
}

// twoFreshReplicas writes two new replicas and checks each kept its own
// bytes: had the preceding step returned one buffer to the pool twice,
// both would be built on it.
func twoFreshReplicas(t *testing.T, s *MemStore, first block.ID) {
	t.Helper()
	a, b := pattern(0xA1), pattern(0xB2)
	writeHinted(t, s, first, a)
	writeHinted(t, s, first+1, b)
	checkReplica(t, s, first, a)
	checkReplica(t, s, first+1, b)
}

func TestMemStoreOpenReaderSurvivesDelete(t *testing.T) {
	s := NewMemStore()
	old := pattern(0x11)
	writeHinted(t, s, 1, old)
	r, _, err := s.Open(1)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if err := s.Delete(1); err != nil {
		t.Fatal(err)
	}
	// A new replica of the same size class: it must not be built on the
	// buffer the open reader still holds.
	fresh := pattern(0x22)
	type readResult struct {
		data []byte
		err  error
	}
	read := make(chan readResult, 1)
	go func() {
		data, err := io.ReadAll(r)
		read <- readResult{data, err}
	}()
	writeHinted(t, s, 2, fresh)
	if got := <-read; got.err != nil || !bytes.Equal(got.data, old) {
		t.Fatalf("reader opened before Delete returned %d bytes (err %v) that are not the deleted replica's", len(got.data), got.err)
	}
	checkReplica(t, s, 2, fresh)
	// Closing one reader twice must not release the other's hold.
	ra, _, err := s.Open(2)
	if err != nil {
		t.Fatal(err)
	}
	rb, _, err := s.Open(2)
	if err != nil {
		t.Fatal(err)
	}
	defer rb.Close()
	ra.Close()
	ra.Close()
	if err := s.Delete(2); err != nil {
		t.Fatal(err)
	}
	writeHinted(t, s, 3, pattern(0x33))
	if got, err := io.ReadAll(rb); err != nil || !bytes.Equal(got, fresh) {
		t.Fatalf("second reader's bytes changed after Delete (err %v)", err)
	}
}

func TestMemStoreOverwriteLeavesSupersededWriterItsBuffer(t *testing.T) {
	s := NewMemStore()
	b := block.Block{ID: 1, Gen: 1}
	old, err := s.Create(b, false)
	if err != nil {
		t.Fatal(err)
	}
	old.(SizeHinter).SizeHint(poolBlock)
	if _, err := old.Write(pattern(0x0D)[:64<<10]); err != nil {
		t.Fatal(err)
	}

	// Recovery re-streams the block under a bumped generation while the
	// superseded pipeline's receiver is still appending.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		stale := pattern(0x0D)[:64<<10]
		for i := 0; i < 15; i++ {
			if _, err := old.Write(stale); err != nil {
				t.Errorf("superseded writer: %v", err)
				return
			}
		}
	}()
	fresh := pattern(0xF0)
	nw, err := s.Create(block.Block{ID: 1, Gen: 2}, true)
	if err != nil {
		t.Fatal(err)
	}
	nw.(SizeHinter).SizeHint(poolBlock)
	for off := 0; off < poolBlock; off += 64 << 10 {
		if _, err := nw.Write(fresh[off : off+64<<10]); err != nil {
			t.Fatal(err)
		}
	}
	if err := nw.Commit(); err != nil {
		t.Fatal(err)
	}
	nw.Close()
	wg.Wait()
	checkReplica(t, s, 1, fresh)

	// The superseded writer's abort recycles its own buffer — once — and
	// must not take the new replica out of the map.
	if err := old.Close(); err != nil {
		t.Fatal(err)
	}
	old.Close()
	checkReplica(t, s, 1, fresh)
	twoFreshReplicas(t, s, 10)
	checkReplica(t, s, 1, fresh)
}

func TestMemStoreRecyclesExactlyOnce(t *testing.T) {
	t.Run("abort", func(t *testing.T) {
		s := NewMemStore()
		w, err := s.Create(block.Block{ID: 1, Gen: 1}, false)
		if err != nil {
			t.Fatal(err)
		}
		w.(SizeHinter).SizeHint(poolBlock)
		if _, err := w.Write(pattern(0x01)[:4096]); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil { // no Commit: abort
			t.Fatal(err)
		}
		w.Close()
		if err := s.Delete(1); !errors.Is(err, ErrNotFound) {
			t.Fatalf("Delete of an aborted replica = %v, want ErrNotFound", err)
		}
		twoFreshReplicas(t, s, 10)
	})
	t.Run("delete-after-close", func(t *testing.T) {
		s := NewMemStore()
		writeHinted(t, s, 1, pattern(0x02))
		if err := s.Delete(1); err != nil {
			t.Fatal(err)
		}
		if err := s.Delete(1); !errors.Is(err, ErrNotFound) {
			t.Fatalf("second Delete = %v, want ErrNotFound", err)
		}
		twoFreshReplicas(t, s, 10)
	})
	t.Run("delete-temp-then-abort", func(t *testing.T) {
		// Delete of a temp replica leaves the buffer with its writer,
		// whose Close is then the one Put.
		s := NewMemStore()
		w, err := s.Create(block.Block{ID: 1, Gen: 1}, false)
		if err != nil {
			t.Fatal(err)
		}
		w.(SizeHinter).SizeHint(poolBlock)
		if err := s.Delete(1); err != nil {
			t.Fatal(err)
		}
		if _, err := w.Write(pattern(0x03)); err != nil {
			t.Fatal(err)
		}
		w.Close()
		twoFreshReplicas(t, s, 10)
	})
}

func TestMemStoreFaultInjectionOnRecycledBuffers(t *testing.T) {
	s := NewMemStore()
	writeHinted(t, s, 1, pattern(0x5A))
	if err := s.Delete(1); err != nil {
		t.Fatal(err)
	}
	data := pattern(0xC3)
	writeHinted(t, s, 2, data) // on the buffer blk_1 returned
	checkReplica(t, s, 2, data)

	if err := s.Corrupt(2, 12345); err != nil {
		t.Fatal(err)
	}
	var mm *checksum.ErrMismatch
	if err := s.VerifyBlock(2); !errors.As(err, &mm) || mm.Chunk != 12345/checksum.DefaultChunkSize {
		t.Fatalf("VerifyBlock after Corrupt = %v, want a mismatch in chunk %d", err, 12345/checksum.DefaultChunkSize)
	}
	if err := s.Truncate(2, poolBlock/2); err != nil {
		t.Fatal(err)
	}
	r, n, err := s.Open(2)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := io.ReadAll(r)
	r.Close()
	if n != poolBlock || len(got) != poolBlock/2 {
		t.Fatalf("truncated replica: recorded length %d, readable %d; want %d and %d", n, len(got), poolBlock, poolBlock/2)
	}
	// The rotted replica's buffer goes back whole, not at its cut length.
	if err := s.Delete(2); err != nil {
		t.Fatal(err)
	}
	twoFreshReplicas(t, s, 10)
}

// TestMemStoreBlockChurnAlloc is the layer's regression guard: a
// replica's life — create, hint, fill, commit, delete — re-buys neither
// the block buffer nor a growth chain of checksums.
func TestMemStoreBlockChurnAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops puts at random under -race")
	}
	s := NewMemStore()
	data := pattern(0x77)
	id := block.ID(0)
	cycle := func() {
		id++
		writeHinted(t, s, id, data)
		if err := s.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	cycle()
	const cycles = 50
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < cycles; i++ {
		cycle()
	}
	runtime.ReadMemStats(&after)
	perBlock := (after.TotalAlloc - before.TotalAlloc) / cycles
	if perBlock > poolBlock/20 {
		t.Fatalf("one block's life allocates %d B, want <= %d (5%% of the block)", perBlock, poolBlock/20)
	}
	t.Logf("one %d B block's life allocates %d B", poolBlock, perBlock)
}
