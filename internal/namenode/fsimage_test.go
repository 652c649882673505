package namenode

import (
	"bytes"
	"encoding/binary"
	"errors"
	"strings"
	"testing"

	"repro/internal/block"
	"repro/internal/nnapi"
	"repro/internal/wire"
)

func TestImageRoundTrip(t *testing.T) {
	nn, _, _ := newTestNN(t)
	completeFileWithReplicas(t, nn, "/img/a", [][]string{
		{"dn1", "dn2", "dn3"},
		{"dn4", "dn5", "dn6"},
	})
	// Also an under-construction file.
	nn.Create(nnapi.CreateReq{Path: "/img/open", Client: "writer", Replication: 2, BlockSize: 1 << 20})
	nn.AddBlock(nnapi.AddBlockReq{Path: "/img/open", Client: "writer"})

	var buf bytes.Buffer
	if err := nn.SaveImage(&buf); err != nil {
		t.Fatal(err)
	}

	// Restore into a fresh namenode.
	nn2 := New(Options{Clock: newTestClock(), Seed: 42})
	if err := nn2.LoadImage(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}

	info, _ := nn2.GetFileInfo(nnapi.GetFileInfoReq{Path: "/img/a"})
	if !info.Exists || !info.Complete || info.Len != 200 || info.NumBlocks != 2 {
		t.Fatalf("restored file info = %+v", info)
	}
	open, _ := nn2.GetFileInfo(nnapi.GetFileInfoReq{Path: "/img/open"})
	if !open.Exists || open.Complete || open.NumBlocks != 1 {
		t.Fatalf("restored open file = %+v", open)
	}

	// Locations are soft state: empty until datanodes re-report.
	locs, _ := nn2.GetBlockLocations(nnapi.GetBlockLocationsReq{Path: "/img/a"})
	for _, lb := range locs.Blocks {
		if len(lb.Targets) != 0 {
			t.Fatalf("locations persisted: %v", lb.Names())
		}
	}
	// A register with a block report repopulates them.
	nn2.Register(nnapi.RegisterReq{
		Name: "dn1", Addr: "mem://dn1", Rack: "/rack-a",
		Blocks: []block.Block{{ID: locs.Blocks[0].Block.ID, Gen: locs.Blocks[0].Block.Gen, NumBytes: 100}},
	})
	locs, _ = nn2.GetBlockLocations(nnapi.GetBlockLocationsReq{Path: "/img/a"})
	if len(locs.Blocks[0].Targets) != 1 {
		t.Fatalf("block report did not restore locations: %v", locs.Blocks[0].Names())
	}

	// Counters restored: the next allocated block must not collide.
	// (First leave safe mode by reporting replicas for every restored
	// block — the remaining /img/a block and /img/open's block.)
	nn2.Register(nnapi.RegisterReq{Name: "dn9", Addr: "mem://dn9", Rack: "/rack-b"})
	rep2 := locs.Blocks[1].Block
	rep2.NumBytes = 100
	nn2.BlockReceived(nnapi.BlockReceivedReq{Name: "dn9", Block: rep2})
	openLocs, _ := nn2.GetBlockLocations(nnapi.GetBlockLocationsReq{Path: "/img/open"})
	openRep := openLocs.Blocks[0].Block
	nn2.BlockReceived(nnapi.BlockReceivedReq{Name: "dn9", Block: openRep})
	nn2.Create(nnapi.CreateReq{Path: "/img/new", Client: "c", Replication: 1, BlockSize: 1 << 20})
	resp, err := nn2.AddBlock(nnapi.AddBlockReq{Path: "/img/new", Client: "c"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Located.Block.ID <= locs.Blocks[0].Block.ID {
		t.Fatalf("block ID counter regressed: new %d vs old %d", resp.Located.Block.ID, locs.Blocks[0].Block.ID)
	}
}

// emptyImage is a well-formed image with no files.
func emptyImage() []byte {
	img := wire.AppendU64(wire.AppendI64([]byte{imageVersion}, 1), 1)
	return wire.AppendCount(img, 0)
}

func TestLoadImageValidation(t *testing.T) {
	src, _, _ := newTestNN(t)
	completeFileWithReplicas(t, src, "/img/a", [][]string{{"dn1"}, {"dn2"}})
	var buf bytes.Buffer
	if err := src.SaveImage(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()
	// The count of /img/a's block list sits 4 bytes before its two blocks.
	hugeCount := bytes.Clone(good)
	binary.BigEndian.PutUint32(hugeCount[len(good)-2*wire.BlockSize-4:], 1<<30)

	for _, tc := range []struct {
		name string
		img  []byte
		want string
	}{
		{"empty input", nil, "unexpected EOF"},
		{"garbage", []byte("not an image"), "version"},
		{"version-1 JSON image", []byte(`{"version": 1, "files": []}`), "version 1 (JSON), want 2"},
		{"future version", append([]byte{99}, good[1:]...), "version 99, want 2"},
		{"truncated in the counters", good[:12], "unexpected EOF"},
		{"truncated in a block list", good[:len(good)-10], "exceeds the 38 bytes remaining"},
		{"trailing bytes", append(bytes.Clone(good), 0), "trailing"},
		{"block count beyond the input", hugeCount, "exceeds"},
		{"file count beyond the input", wire.AppendCount(emptyImage()[:17], 1000), "exceeds"},
	} {
		nn := New(Options{Clock: newTestClock(), Seed: 1})
		err := nn.LoadImage(bytes.NewReader(tc.img))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want one mentioning %q", tc.name, err, tc.want)
		}
		if n := len(nn.ns.files); n != 0 {
			t.Errorf("%s: a rejected image left %d files behind", tc.name, n)
		}
	}

	// Non-empty namespace refuses a load.
	if err := src.LoadImage(bytes.NewReader(emptyImage())); err == nil {
		t.Fatal("load into non-empty namespace accepted")
	}
}

// handFile is one complete R3 file of a hand-made image.
type handFile struct {
	path string
	ids  []block.ID
}

// handImage encodes a checkpoint field by field, so it can hold what
// SaveImage never writes.
func handImage(nextBlock int64, files ...handFile) []byte {
	img := wire.AppendU64(wire.AppendI64([]byte{imageVersion}, nextBlock), uint64(nextBlock))
	img = wire.AppendCount(img, len(files))
	for _, f := range files {
		img = wire.AppendString(img, f.path)
		img = wire.AppendString(img, "")
		img = wire.AppendInt(img, 3)
		img = wire.AppendI64(img, 1<<20)
		img = wire.AppendBool(img, true)
		blocks := make([]block.Block, len(f.ids))
		for i, id := range f.ids {
			blocks[i] = block.Block{ID: id, Gen: 1, NumBytes: 1 << 20}
		}
		img = wire.AppendBlocks(img, blocks)
	}
	return img
}

// The three images SaveImage never writes, each one entry away from
// handImage(2, /a [1], /b [2]), which loads.
var (
	imageSharedBlock  = handImage(2, handFile{"/a", []block.ID{1}}, handFile{"/b", []block.ID{1}})
	imageBlockAboveID = handImage(2, handFile{"/a", []block.ID{1}}, handFile{"/b", []block.ID{3}})
	imagePathTwice    = handImage(2, handFile{"/a", []block.ID{1}}, handFile{"/a", []block.ID{2}})
)

// loadRefused checks that the consistent neighbour of the three images
// loads, then that img is refused with an error mentioning want and
// leaves the namespace empty.
func loadRefused(t *testing.T, img []byte, want string) {
	t.Helper()
	consistent := handImage(2, handFile{"/a", []block.ID{1}}, handFile{"/b", []block.ID{2}})
	if err := New(Options{Clock: newTestClock(), Seed: 1}).LoadImage(bytes.NewReader(consistent)); err != nil {
		t.Fatalf("the consistent hand-made image is refused: %v", err)
	}
	nn := New(Options{Clock: newTestClock(), Seed: 1})
	err := nn.LoadImage(bytes.NewReader(img))
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("LoadImage err = %v, want one mentioning %q", err, want)
	}
	if n, b := len(nn.ns.files), len(nn.ns.blocks); n != 0 || b != 0 {
		t.Fatalf("a refused image left %d files and %d blocks behind", n, b)
	}
}

// TestLoadImageRefusesSharedBlock: two files listing one block ID. Once
// loaded, deleting one file dropped the block the other still listed,
// and List reported the survivor complete with no blocks.
func TestLoadImageRefusesSharedBlock(t *testing.T) {
	loadRefused(t, imageSharedBlock, "block 1 in both /a and /b")
}

// TestLoadImageRefusesBlockAboveNextID: a block ID the image's counter
// has not reached yet would be issued again by a later addBlock, which
// would overwrite its block-map entry.
func TestLoadImageRefusesBlockAboveNextID(t *testing.T) {
	loadRefused(t, imageBlockAboveID, "lists block 3, above its next block ID 2")
}

// TestLoadImageRefusesPathTwice: the second entry for a path would
// replace the first in the namespace and orphan its blocks.
func TestLoadImageRefusesPathTwice(t *testing.T) {
	loadRefused(t, imagePathTwice, "lists /a twice")
}

func TestSafeModeAfterImageLoad(t *testing.T) {
	// Build a namespace with replicated blocks, checkpoint it, restore.
	nn, _, _ := newTestNN(t)
	completeFileWithReplicas(t, nn, "/sm", [][]string{{"dn1"}, {"dn2"}})
	var buf bytes.Buffer
	if err := nn.SaveImage(&buf); err != nil {
		t.Fatal(err)
	}

	nn2 := New(Options{Clock: newTestClock(), Seed: 1})
	if err := nn2.LoadImage(&buf); err != nil {
		t.Fatal(err)
	}
	nn2.Register(nnapi.RegisterReq{Name: "dn9", Addr: "mem://dn9", Rack: "/r"})

	// Mutations are rejected while blocks lack reported replicas.
	if _, err := nn2.Create(nnapi.CreateReq{Path: "/new", Client: "c", Replication: 1, BlockSize: 1 << 20}); !errors.Is(err, ErrSafeMode) {
		t.Fatalf("create in safe mode err = %v", err)
	}
	if _, err := nn2.Delete(nnapi.DeleteReq{Path: "/sm"}); !errors.Is(err, ErrSafeMode) {
		t.Fatalf("delete in safe mode err = %v", err)
	}
	// Reads still work.
	if info, err := nn2.GetFileInfo(nnapi.GetFileInfoReq{Path: "/sm"}); err != nil || !info.Exists {
		t.Fatalf("read in safe mode: %+v, %v", info, err)
	}
	ci, _ := nn2.ClusterInfo(nnapi.ClusterInfoReq{})
	if !ci.SafeMode {
		t.Fatal("ClusterInfo does not report safe mode")
	}

	// Report one of the two blocks: still in safe mode.
	locs, _ := nn2.GetBlockLocations(nnapi.GetBlockLocationsReq{Path: "/sm"})
	b0 := locs.Blocks[0].Block
	b0.NumBytes = 100
	nn2.BlockReceived(nnapi.BlockReceivedReq{Name: "dn9", Block: b0})
	if _, err := nn2.Create(nnapi.CreateReq{Path: "/new", Client: "c", Replication: 1, BlockSize: 1 << 20}); !errors.Is(err, ErrSafeMode) {
		t.Fatalf("create with partial reports err = %v", err)
	}
	// Report the second: safe mode exits and writes flow.
	b1 := locs.Blocks[1].Block
	b1.NumBytes = 100
	nn2.BlockReceived(nnapi.BlockReceivedReq{Name: "dn9", Block: b1})
	if _, err := nn2.Create(nnapi.CreateReq{Path: "/new", Client: "c", Replication: 1, BlockSize: 1 << 20}); err != nil {
		t.Fatalf("create after full reports: %v", err)
	}
	ci, _ = nn2.ClusterInfo(nnapi.ClusterInfoReq{})
	if ci.SafeMode {
		t.Fatal("safe mode did not clear")
	}
}

func TestFreshNamenodeNotInSafeMode(t *testing.T) {
	nn := New(Options{Clock: newTestClock(), Seed: 1})
	nn.Register(nnapi.RegisterReq{Name: "dn1", Addr: "a", Rack: "/r"})
	if _, err := nn.Create(nnapi.CreateReq{Path: "/f", Client: "c", Replication: 1, BlockSize: 1 << 20}); err != nil {
		t.Fatalf("fresh namenode rejected create: %v", err)
	}
	// An empty image also starts out of safe mode.
	nn2 := New(Options{Clock: newTestClock(), Seed: 2})
	if err := nn2.LoadImage(bytes.NewReader(emptyImage())); err != nil {
		t.Fatal(err)
	}
	nn2.Register(nnapi.RegisterReq{Name: "dn1", Addr: "a", Rack: "/r"})
	if _, err := nn2.Create(nnapi.CreateReq{Path: "/f", Client: "c", Replication: 1, BlockSize: 1 << 20}); err != nil {
		t.Fatalf("empty-image namenode rejected create: %v", err)
	}
}

// FuzzLoadImage feeds arbitrary bytes to the checkpoint decoder, which
// runs on whatever file the operator points the namenode at. It must
// return an error and leave the namespace empty, or load a namespace
// whose checkpoint loads again to the same checkpoint; never panic; and
// never allocate by a count it has not checked against the input (the
// seeds include counts far beyond their bytes).
func FuzzLoadImage(f *testing.F) {
	src, _, _ := newTestNN(f)
	completeFileWithReplicas(f, src, "/img/a", [][]string{{"dn1", "dn2"}, {"dn3"}})
	src.Create(nnapi.CreateReq{Path: "/img/open", Client: "writer", Replication: 2, BlockSize: 1 << 20})
	src.AddBlock(nnapi.AddBlockReq{Path: "/img/open", Client: "writer"})
	var buf bytes.Buffer
	if err := src.SaveImage(&buf); err != nil {
		f.Fatal(err)
	}
	good := buf.Bytes()
	for _, seed := range [][]byte{
		good, emptyImage(), good[:len(good)/2], good[:12], append(bytes.Clone(good), 0), {},
		[]byte(`{"version": 1, "files": []}`),
		wire.AppendCount(emptyImage()[:17], 1<<31),
		append(bytes.Clone(good[:len(good)-2*wire.BlockSize-4]), 0xff, 0xff, 0xff, 0xff),
		imageSharedBlock, imageBlockAboveID, imagePathTwice,
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		nn := New(Options{Clock: newTestClock(), Seed: 1})
		if err := nn.LoadImage(bytes.NewReader(raw)); err != nil {
			if n := len(nn.ns.files); n != 0 {
				t.Fatalf("rejected image (%v) left %d files behind", err, n)
			}
			return
		}
		var first, second bytes.Buffer
		if err := nn.SaveImage(&first); err != nil {
			t.Fatal(err)
		}
		again := New(Options{Clock: newTestClock(), Seed: 1})
		if err := again.LoadImage(bytes.NewReader(first.Bytes())); err != nil {
			t.Fatalf("image\n%x\nloaded, but its checkpoint\n%x\ndoes not: %v", raw, first.Bytes(), err)
		}
		if err := again.SaveImage(&second); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("image\n%x\ncheckpoints to\n%x\nwhich loads and checkpoints to\n%x", raw, first.Bytes(), second.Bytes())
		}
	})
}
