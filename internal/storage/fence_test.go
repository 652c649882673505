package storage

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/block"
	"repro/internal/checksum"
)

// These tests hold both stores to the generation fence of the package
// doc. The model test drives a store through one sequence of Create,
// Write, Append, Commit, Close and Delete calls over a few block IDs and
// three generations, and after every call compares what the store
// answers — Info, Open with its bytes and checksums, Blocks, UsedBytes —
// with a reference map that applies the fence. Readers opened along the
// way stay open across later calls, Deletes included, and must still
// read what they opened: the package doc's recycling rule.

// modelIDs is how many block IDs a model sequence spreads over.
const modelIDs = 3

// modelOp is one call of a model sequence. A writer is named by the
// number of Creates before the one that opened it; a call on a writer
// whose Create was refused, or that can no longer take the call, is
// skipped.
type modelOp struct {
	op  string // create, write, append, commit, close, delete, open or drain
	id  block.ID
	gen block.GenStamp
	w   int // the writer, for write, append, commit and close
	n   int // bytes to write; whole chunks to append
}

// modelReplica is the reference's replica of one ID.
type modelReplica struct {
	gen       block.GenStamp
	finalized bool
	writer    int // the Create that made it
	data      []byte
}

// modelReader is a reader opened by an open op, and what it must read.
type modelReader struct {
	r    Replica
	data []byte
}

type modelWriter struct {
	w                 BlockWriter // nil: its Create was refused
	id                block.ID
	data              []byte
	committed, closed bool
}

// modelBytes is writer k's stream at offset off: no two writers write
// the same bytes at the same offset.
func modelBytes(k, off, n int) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = byte(k*101 + (off+i)*7 + (off+i)>>9)
	}
	return p
}

// runModel applies ops to s and to the reference, checking s after each,
// then closes every writer still open and returns the reference.
func runModel(t *testing.T, s Store, ops []modelOp) map[block.ID]*modelReplica {
	t.Helper()
	ref := map[block.ID]*modelReplica{}
	var writers []*modelWriter
	var readers []modelReader
	drain := func(when string) {
		mr := readers[0]
		readers = readers[1:]
		got, err := io.ReadAll(mr.r)
		sums := bytes.Clone(mr.r.RawSums())
		mr.r.Close()
		if err != nil || !bytes.Equal(got, mr.data) || !bytes.Equal(sums, checksum.AppendEncoded(nil, mr.data, chunkSize)) {
			t.Fatalf("%s: a reader reads back %d of %d bytes (%v), or other bytes or checksums than it opened",
				when, len(got), len(mr.data), err)
		}
	}
	ours := func(k int) bool {
		r := ref[writers[k].id]
		return r != nil && r.writer == k && !r.finalized
	}
	closeWriter := func(k int) {
		mw := writers[k]
		if err := mw.w.Close(); err != nil {
			t.Fatalf("writer %d's Close: %v", k, err)
		}
		if !mw.committed && ours(k) {
			delete(ref, mw.id)
		}
		mw.closed = true
	}
	for i, op := range ops {
		var mw *modelWriter
		if op.op == "write" || op.op == "append" || op.op == "commit" || op.op == "close" {
			if mw = writers[op.w]; mw.w == nil || mw.closed || mw.committed && op.op != "close" {
				continue
			}
		}
		switch op.op {
		case "create":
			b := block.Block{ID: op.id, Gen: op.gen}
			held := ref[op.id]
			stale := held != nil && (held.gen > op.gen || held.gen == op.gen && held.finalized)
			w, err := s.Create(b, true)
			if stale && !errors.Is(err, ErrStale) || !stale && err != nil {
				t.Fatalf("op %d: Create(%v) = %v, want stale %v", i, b, err, stale)
			}
			writers = append(writers, &modelWriter{w: w, id: op.id})
			if !stale {
				ref[op.id] = &modelReplica{gen: op.gen, writer: len(writers) - 1}
			}
		case "write", "append":
			n := op.n
			if op.op == "append" {
				n *= chunkSize
			}
			p := modelBytes(op.w, len(mw.data), n)
			var err error
			if op.op == "append" && len(mw.data)%chunkSize == 0 {
				err = mw.w.Append(p, checksum.AppendEncoded(nil, p, chunkSize))
			} else {
				_, err = mw.w.Write(p)
			}
			if err != nil {
				t.Fatalf("op %d: writer %d: %v", i, op.w, err)
			}
			mw.data = append(mw.data, p...)
			if ours(op.w) {
				ref[mw.id].data = mw.data
			}
		case "commit":
			want := ours(op.w)
			err := mw.w.Commit()
			if want && err != nil || !want && !errors.Is(err, ErrStale) {
				t.Fatalf("op %d: writer %d's Commit = %v; its replica is still the store's: %v", i, op.w, err, want)
			}
			if want {
				mw.committed = true
				ref[mw.id].finalized = true
			}
		case "close":
			closeWriter(op.w)
		case "delete":
			_, held := ref[op.id]
			err := s.Delete(op.id)
			if held && err != nil || !held && !errors.Is(err, ErrNotFound) {
				t.Fatalf("op %d: Delete(%d) = %v; the reference holds it: %v", i, op.id, err, held)
			}
			delete(ref, op.id)
		case "open":
			if r := ref[op.id]; r != nil && r.finalized {
				rd, _, err := s.Open(op.id)
				if err != nil {
					t.Fatalf("op %d: Open(%d): %v", i, op.id, err)
				}
				readers = append(readers, modelReader{rd, r.data})
			}
		case "drain":
			if len(readers) > 0 {
				drain(fmt.Sprintf("op %d", i))
			}
		}
		checkModel(t, s, ref, fmt.Sprintf("after op %d %+v", i, op))
	}
	for k, mw := range writers {
		if mw.w != nil && !mw.closed {
			closeWriter(k)
		}
	}
	for len(readers) > 0 {
		drain("once every writer closed")
	}
	checkModel(t, s, ref, "once every writer closed")
	return ref
}

// checkModel holds s to the reference for every model ID.
func checkModel(t *testing.T, s Store, ref map[block.ID]*modelReplica, when string) {
	t.Helper()
	var used int64
	var final []block.ID
	for id := block.ID(1); id <= modelIDs; id++ {
		r := ref[id]
		info, err := s.Info(id)
		if r == nil {
			if !errors.Is(err, ErrNotFound) {
				t.Fatalf("%s: Info(%d) = %+v, %v; the reference holds nothing", when, id, info, err)
			}
			if _, _, err := s.Open(id); !errors.Is(err, ErrNotFound) {
				t.Fatalf("%s: Open(%d) = %v, want ErrNotFound", when, id, err)
			}
			continue
		}
		if err != nil || info.Block.Gen != r.gen || (info.State == Finalized) != r.finalized || info.Len != int64(len(r.data)) {
			t.Fatalf("%s: Info(%d) = %+v, %v; the reference holds gen %d, finalized %v, %d bytes",
				when, id, info, err, r.gen, r.finalized, len(r.data))
		}
		used += int64(len(r.data))
		rd, n, err := s.Open(id)
		if !r.finalized {
			if !errors.Is(err, ErrNotFinalized) {
				t.Fatalf("%s: Open(%d) of a temp replica = %v, want ErrNotFinalized", when, id, err)
			}
			continue
		}
		final = append(final, id)
		if err != nil {
			t.Fatalf("%s: Open(%d): %v", when, id, err)
		}
		got, err := io.ReadAll(rd)
		sums := bytes.Clone(rd.RawSums())
		rd.Close()
		if err != nil || n != int64(len(r.data)) || !bytes.Equal(got, r.data) ||
			!bytes.Equal(sums, checksum.AppendEncoded(nil, r.data, chunkSize)) {
			t.Fatalf("%s: blk_%d reads back %d of %d bytes (%v), or other bytes or checksums than the reference's",
				when, id, len(got), n, err)
		}
	}
	if got := s.UsedBytes(); got != used {
		t.Fatalf("%s: UsedBytes = %d, the reference holds %d", when, got, used)
	}
	var listed []block.ID
	for _, info := range s.Blocks() {
		listed = append(listed, info.Block.ID)
	}
	if fmt.Sprint(listed) != fmt.Sprint(final) {
		t.Fatalf("%s: Blocks lists %v, the reference's finalized replicas are %v", when, listed, final)
	}
}

// randomModelOps draws n calls over modelIDs blocks and generations 1–3,
// each on one of the last three writers opened. One write in four runs
// to tens of KB, so replicas of very different lengths follow each other.
func randomModelOps(rng *rand.Rand, n int) []modelOp {
	ops := make([]modelOp, 0, n)
	creates := 0
	for len(ops) < n {
		op := modelOp{id: block.ID(1 + rng.Intn(modelIDs)), gen: block.GenStamp(1 + rng.Intn(3))}
		if creates > 0 {
			op.w = creates - 1 - rng.Intn(min(creates, 3))
		}
		switch k := rng.Intn(12); {
		case creates == 0 || k < 3:
			op.op = "create"
			creates++
		case k < 5:
			op.op, op.n = "write", 1+rng.Intn(1500)
			if rng.Intn(4) == 0 {
				op.n = 1 + rng.Intn(64<<10)
			}
		case k < 6:
			op.op, op.n = "append", 1+rng.Intn(3)
		case k < 8:
			op.op = "commit"
		case k < 9:
			op.op = "close"
		case k < 10:
			op.op = "delete"
		case k < 11:
			op.op = "open"
		default:
			op.op = "drain"
		}
		ops = append(ops, op)
	}
	return ops
}

// TestStoreMatchesModel runs four named sequences and thirty seeded
// random ones on both stores; a DiskStore is then opened again over its
// directory and must index exactly the reference's finalized replicas.
func TestStoreMatchesModel(t *testing.T) {
	run := func(t *testing.T, ops []modelOp) {
		t.Run("mem", func(t *testing.T) { runModel(t, NewMemStore(), ops) })
		t.Run("disk", func(t *testing.T) {
			dir := t.TempDir()
			s, err := NewDiskStore(dir)
			if err != nil {
				t.Fatal(err)
			}
			ref := runModel(t, s, ops)
			if s, err = NewDiskStore(dir); err != nil {
				t.Fatal(err)
			}
			checkModel(t, s, ref, "after a restart")
		})
	}
	for _, tc := range []struct {
		name string
		ops  []modelOp
	}{
		// Recovery committed gen 3; then the superseded gen-2 pipeline's
		// Create arrives, and its stream aborts.
		{"stale create after the recovery commit", []modelOp{
			{op: "create", id: 1, gen: 3}, {op: "write", w: 0, n: 1500}, {op: "commit", w: 0}, {op: "close", w: 0},
			{op: "create", id: 1, gen: 2}, {op: "write", w: 1, n: 100}, {op: "close", w: 1},
		}},
		// datanode.invalidate's Info-then-Delete window: the Delete lands on
		// a replica a pipeline has just created, whose Commit must then fail
		// rather than report a block the store no longer holds.
		{"delete between create and commit", []modelOp{
			{op: "create", id: 1, gen: 1}, {op: "write", w: 0, n: 700}, {op: "delete", id: 1},
			{op: "commit", w: 0}, {op: "close", w: 0},
		}},
		// A pipeline re-created at its own generation: the displaced writer
		// keeps appending, tries to commit, and closes under the new one.
		{"same-generation re-create", []modelOp{
			{op: "create", id: 1, gen: 2}, {op: "write", w: 0, n: 512},
			{op: "create", id: 1, gen: 2}, {op: "write", w: 1, n: 900},
			{op: "append", w: 0, n: 2}, {op: "commit", w: 0}, {op: "close", w: 0},
			{op: "write", w: 1, n: 300}, {op: "commit", w: 1}, {op: "close", w: 1},
		}},
		// A reader holds a long replica across its Delete while a short one
		// takes the ID: the new replica must neither reuse the reader's
		// storage nor inherit the long one's tail.
		{"reader open across delete and a shorter successor", []modelOp{
			{op: "create", id: 1, gen: 1}, {op: "write", w: 0, n: 40 << 10}, {op: "commit", w: 0}, {op: "close", w: 0},
			{op: "open", id: 1}, {op: "delete", id: 1},
			{op: "create", id: 1, gen: 1}, {op: "write", w: 1, n: 700}, {op: "commit", w: 1}, {op: "close", w: 1},
			{op: "drain"}, {op: "delete", id: 1},
			{op: "create", id: 2, gen: 1}, {op: "write", w: 2, n: 300}, {op: "commit", w: 2}, {op: "close", w: 2},
		}},
	} {
		t.Run(tc.name, func(t *testing.T) { run(t, tc.ops) })
	}
	for seed := int64(1); seed <= 30; seed++ {
		ops := randomModelOps(rand.New(rand.NewSource(seed)), 80)
		t.Run(fmt.Sprintf("seed %d", seed), func(t *testing.T) { run(t, ops) })
	}
}

// TestDiskStoreSameGenerationDisplacement: a pipeline re-created at the
// same generation gives both writers the one path tmp/blk_<id>_<gen>.
// The displaced writer must neither commit — that would rename the new
// writer's half-written file into cur/ under the displaced writer's
// checksums — nor remove the new writer's file when it aborts. The new
// writer commits, and a restart indexes exactly its replica.
func TestDiskStoreSameGenerationDisplacement(t *testing.T) {
	dir := t.TempDir()
	s, err := NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	b := block.Block{ID: 7, Gen: 2}
	stale := bytes.Repeat([]byte{0x0D}, 1000)
	fresh := make([]byte, 3000)
	rand.New(rand.NewSource(7)).Read(fresh)
	old, err := s.Create(b, true)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := old.Write(stale); err != nil {
		t.Fatal(err)
	}
	nw, err := s.Create(b, true)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := nw.Write(fresh[:1500]); err != nil {
		t.Fatal(err)
	}
	// The displaced writer goes on with its own bytes, then tries to commit.
	if _, err := old.Write(stale); err != nil {
		t.Fatal(err)
	}
	if err := old.Commit(); !errors.Is(err, ErrStale) {
		t.Fatalf("the displaced writer's Commit = %v, want ErrStale", err)
	}
	if cur, err := os.ReadDir(filepath.Join(dir, "cur")); err != nil || len(cur) != 0 {
		t.Fatalf("cur/ holds %d files after the displaced writer's Commit (%v), want none", len(cur), err)
	}
	if err := old.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "tmp", blockFileName(b))); err != nil {
		t.Fatalf("the displaced writer's Close removed the new writer's file: %v", err)
	}
	if _, err := nw.Write(fresh[1500:]); err != nil {
		t.Fatal(err)
	}
	if err := nw.Commit(); err != nil {
		t.Fatal(err)
	}
	nw.Close()
	reopened, err := NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	for name, st := range map[string]*DiskStore{"the store": s, "the store re-opened": reopened} {
		want := block.Block{ID: b.ID, Gen: b.Gen, NumBytes: int64(len(fresh))}
		if list := st.Blocks(); len(list) != 1 || list[0].Block != want {
			t.Fatalf("%s lists %+v, want only the new writer's %v", name, list, want)
		}
		r, _, err := st.Open(b.ID)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got, err := io.ReadAll(r)
		r.Close()
		if err != nil || !bytes.Equal(got, fresh) {
			t.Fatalf("%s reads back %d bytes (%v) that are not the new writer's", name, len(got), err)
		}
		if err := st.VerifyBlock(b.ID); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}
