package namenode

import (
	"fmt"
	"io"
	"sort"
	"time"

	"repro/internal/block"
	"repro/internal/wire"
)

// The fsimage is the namenode's persistent namespace checkpoint: files,
// their blocks, and the ID/generation counters. Replica locations are
// deliberately NOT persisted — exactly like HDFS, they are soft state
// rebuilt from datanode block reports after a restart.
//
// Layout, on the primitives of internal/wire:
//
//	u8 version | i64 next block id | u64 next generation | u32 file count |
//	per file: path, client, i64 replication, i64 block size, bool complete,
//	          counted blocks (id, generation, length)

// imageVersion is the first byte of a checkpoint and guards against
// loading an incompatible one. Version 1 was a JSON document.
const imageVersion = 2

// imageFileSize is the least one file occupies in an image: two empty
// strings, two integers, the flag and an empty block list.
const imageFileSize = 2*wire.MinStringSize + 2*8 + 1 + 4

// SaveImage writes a namespace checkpoint. The image is encoded under
// nn.mu and written after releasing it, so it is one point in time even
// while clients write: every file appears exactly once, with the blocks
// and counters of that instant.
func (nn *Namenode) SaveImage(w io.Writer) error {
	nn.mu.Lock()
	img := nn.ns.image()
	nn.mu.Unlock()
	_, err := w.Write(img)
	return err
}

// image encodes the namespace in the layout above, files in path order.
func (ns *namesystem) image() []byte {
	paths := make([]string, 0, len(ns.files))
	for path := range ns.files {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	img := append([]byte(nil), imageVersion)
	img = wire.AppendI64(img, ns.nextBlock)
	img = wire.AppendU64(img, ns.nextGen)
	img = wire.AppendCount(img, len(paths))
	var blocks []block.Block
	for _, path := range paths {
		f := ns.files[path]
		img = wire.AppendString(img, f.path)
		img = wire.AppendString(img, f.client)
		img = wire.AppendInt(img, f.replication)
		img = wire.AppendI64(img, f.blockSize)
		img = wire.AppendBool(img, f.complete)
		blocks = blocks[:0]
		for _, id := range f.blocks {
			if meta, ok := ns.blocks[id]; ok {
				blocks = append(blocks, meta.cur)
			}
		}
		img = wire.AppendBlocks(img, blocks)
	}
	return img
}

// imageFile is one decoded checkpoint entry: the inode and its blocks.
type imageFile struct {
	inode  *fileInode
	blocks []block.Block
}

// LoadImage restores a checkpoint into an empty namenode. Leases of
// under-construction files restart from load time, so a writer that
// survived the namenode restart keeps its lease as long as it heartbeats.
// The whole image is read, decoded and checked before nn.mu is taken to
// install it, so a malformed image leaves the namenode empty.
func (nn *Namenode) LoadImage(r io.Reader) error {
	img, err := io.ReadAll(r)
	if err != nil {
		return fmt.Errorf("namenode: read image: %w", err)
	}
	rd := wire.NewReader(img)
	// An empty input fails the reader; Done reports it below.
	if v := rd.U8(); rd.Err() == nil && v == '{' {
		return fmt.Errorf("namenode: image version 1 (JSON), want %d: the JSON checkpoint format is no longer read", imageVersion)
	} else if rd.Err() == nil && v != imageVersion {
		return fmt.Errorf("namenode: image version %d, want %d", v, imageVersion)
	}
	nextBlock, nextGen := rd.I64(), rd.U64()
	files := make([]imageFile, rd.Count(imageFileSize))
	totalBlocks := 0
	for i := range files {
		f := &fileInode{
			path:        rd.Str(),
			client:      rd.Str(),
			replication: rd.Int(),
			blockSize:   rd.I64(),
			complete:    rd.Bool(),
		}
		metas := rd.Blocks()
		for _, b := range metas {
			f.blocks = append(f.blocks, b.ID)
		}
		totalBlocks += len(metas)
		files[i] = imageFile{f, metas}
	}
	if err := rd.Done(); err != nil {
		return fmt.Errorf("namenode: decode image: %w", err)
	}
	if err := checkImage(files, nextBlock); err != nil {
		return err
	}
	nn.mu.Lock()
	defer nn.mu.Unlock()
	if err := nn.ns.restore(files, nextBlock, nextGen, nn.clk.Now()); err != nil {
		return err
	}
	// Replica locations are unknown until datanodes report: enter safe
	// mode (namespace mutations rejected) if the image holds any blocks.
	nn.safeMode = totalBlocks > 0
	return nil
}

// checkImage refuses a decoded checkpoint that SaveImage could not have
// written: a path listed twice (the second entry would orphan the
// first's blocks), a replication factor below 1 (create never makes one,
// and the replication sweep would never restore such a file's blocks), a
// block listed by two files (deleting one would leave the other listing
// a block gone from the block map), or a block ID above the image's next
// one (a later addBlock would issue it again).
func checkImage(files []imageFile, nextBlock int64) error {
	paths := make(map[string]bool, len(files))
	owners := make(map[block.ID]string)
	for _, img := range files {
		path := img.inode.path
		if paths[path] {
			return fmt.Errorf("namenode: image lists %s twice", path)
		}
		paths[path] = true
		if r := img.inode.replication; r < 1 {
			return fmt.Errorf("namenode: image's %s has replication %d, below 1", path, r)
		}
		for _, b := range img.blocks {
			if int64(b.ID) > nextBlock {
				return fmt.Errorf("namenode: image's %s lists block %d, above its next block ID %d", path, b.ID, nextBlock)
			}
			if owner, dup := owners[b.ID]; dup {
				return fmt.Errorf("namenode: image lists block %d in both %s and %s", b.ID, owner, path)
			}
			owners[b.ID] = path
		}
	}
	return nil
}

// restore fills an empty namesystem from a decoded checkpoint, its
// leases renewed as of now.
func (ns *namesystem) restore(files []imageFile, nextBlock int64, nextGen uint64, now time.Time) error {
	if n := len(ns.files); n != 0 {
		return fmt.Errorf("namenode: refusing to load an image into a non-empty namespace (%d files)", n)
	}
	for _, img := range files {
		f := img.inode
		ns.files[f.path] = f
		if !f.complete {
			ns.renew(f.client, now).files[f.path] = f
		}
		for _, b := range img.blocks {
			ns.blocks[b.ID] = &blockMeta{
				cur:         b,
				path:        f.path,
				replication: f.replication,
				complete:    f.complete,
			}
		}
	}
	ns.nextBlock, ns.nextGen = nextBlock, nextGen
	return nil
}
