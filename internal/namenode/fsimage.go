package namenode

import (
	"fmt"
	"io"

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

// SaveImage writes a namespace checkpoint. The snapshot is taken shard
// by shard (there is no global namesystem lock), so it is consistent per
// file but not across concurrent mutations — checkpoint a quiesced
// namenode, as the CLI's save path does.
func (nn *Namenode) SaveImage(w io.Writer) error {
	files := nn.ns.list("")
	img := append([]byte(nil), imageVersion)
	img = wire.AppendI64(img, nn.ns.nextBlock.Load())
	img = wire.AppendU64(img, nn.ns.nextGen.Load())
	img = wire.AppendCount(img, len(files))
	var blocks []block.Block
	for _, f := range files {
		img = wire.AppendString(img, f.path)
		img = wire.AppendString(img, f.client)
		img = wire.AppendInt(img, f.replication)
		img = wire.AppendI64(img, f.blockSize)
		img = wire.AppendBool(img, f.complete)
		blocks = blocks[:0]
		for _, id := range f.blocks {
			if cur, _, _, ok := nn.ns.blockView(id); ok {
				blocks = append(blocks, cur)
			}
		}
		img = wire.AppendBlocks(img, blocks)
	}
	_, err := w.Write(img)
	return err
}

// LoadImage restores a checkpoint into an empty namenode. Leases of
// under-construction files restart from load time, so a writer that
// survived the namenode restart keeps its lease as long as it heartbeats.
// The whole image is decoded and checked before the namespace is
// touched, so a malformed image leaves the namenode empty.
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
	type imageFile struct {
		inode  *fileInode
		blocks []block.Block
	}
	files := make([]imageFile, rd.Count(imageFileSize))
	now := nn.clk.Now()
	totalBlocks := 0
	for i := range files {
		f := &fileInode{
			path:        rd.Str(),
			client:      rd.Str(),
			replication: rd.Int(),
			blockSize:   rd.I64(),
			complete:    rd.Bool(),
			renewed:     now,
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
	if n := nn.ns.fileCount(); n != 0 {
		return fmt.Errorf("namenode: refusing to load an image into a non-empty namespace (%d files)", n)
	}
	for _, f := range files {
		nn.ns.restore(f.inode, f.blocks)
	}
	nn.ns.nextBlock.Store(nextBlock)
	nn.ns.nextGen.Store(nextGen)
	// Replica locations are unknown until datanodes report: enter safe
	// mode (namespace mutations rejected) if the image holds any blocks.
	nn.safeMode.Store(totalBlocks > 0)
	return nil
}
