package nnapi

import (
	"repro/internal/proto"
	"repro/internal/wire"
)

// Every request and response type is a wire message in both directions:
// AppendTo appends its encoding to dst (it cannot fail and, given a
// buffer with room, does not allocate), and ParseFrom decodes a whole
// body — the input must be consumed exactly, every length is checked
// against the bytes remaining before anything is allocated, and the
// decoded value owns its memory, so the caller may recycle b as soon as
// ParseFrom returns. Fields that name a datanode, its address or its
// rack decode through wire.Reader.Name, so a name seen before costs no
// string; client names and paths never do. Fields go on the wire in
// declaration order, built from the primitives of internal/wire; there
// is one protocol version.

// empty is embedded by the messages that carry no fields.
type empty struct{}

// AppendTo appends nothing: the message has no fields.
func (empty) AppendTo(dst []byte) []byte { return dst }

// ParseFrom accepts only an empty body.
func (*empty) ParseFrom(b []byte) error {
	r := wire.NewReader(b)
	return r.Done()
}

// AppendTo appends path, client, replication (i64), block size (i64), overwrite (bool).
func (m CreateReq) AppendTo(dst []byte) []byte {
	dst = wire.AppendString(dst, m.Path)
	dst = wire.AppendString(dst, m.Client)
	dst = wire.AppendInt(dst, m.Replication)
	dst = wire.AppendI64(dst, m.BlockSize)
	return wire.AppendBool(dst, m.Overwrite)
}

// ParseFrom decodes a whole CreateReq body, the inverse of AppendTo.
func (m *CreateReq) ParseFrom(b []byte) error {
	r := wire.NewReader(b)
	*m = CreateReq{Path: r.Str(), Client: r.Str(), Replication: r.Int(), BlockSize: r.I64(), Overwrite: r.Bool()}
	return r.Done()
}

// AppendTo appends path, client, mode (u8), exclude list, previous block.
func (m AddBlockReq) AppendTo(dst []byte) []byte {
	dst = wire.AppendString(dst, m.Path)
	dst = wire.AppendString(dst, m.Client)
	dst = append(dst, byte(m.Mode))
	dst = wire.AppendStrings(dst, m.Exclude)
	return wire.AppendBlock(dst, m.Previous)
}

// ParseFrom decodes a whole AddBlockReq body, the inverse of AppendTo.
func (m *AddBlockReq) ParseFrom(b []byte) error {
	r := wire.NewReader(b)
	*m = AddBlockReq{Path: r.Str(), Client: r.Str(), Mode: proto.WriteMode(r.U8()), Exclude: r.Names(), Previous: r.Block()}
	return r.Done()
}

// AppendTo appends the located block (block, counted targets).
func (m AddBlockResp) AppendTo(dst []byte) []byte { return wire.AppendLocated(dst, m.Located) }

// ParseFrom decodes a whole AddBlockResp body, the inverse of AppendTo.
func (m *AddBlockResp) ParseFrom(b []byte) error {
	r := wire.NewReader(b)
	*m = AddBlockResp{Located: r.Located()}
	return r.Done()
}

// AppendTo appends path, client.
func (m CompleteReq) AppendTo(dst []byte) []byte {
	dst = wire.AppendString(dst, m.Path)
	return wire.AppendString(dst, m.Client)
}

// ParseFrom decodes a whole CompleteReq body, the inverse of AppendTo.
func (m *CompleteReq) ParseFrom(b []byte) error {
	r := wire.NewReader(b)
	*m = CompleteReq{Path: r.Str(), Client: r.Str()}
	return r.Done()
}

// AppendTo appends done (bool).
func (m CompleteResp) AppendTo(dst []byte) []byte { return wire.AppendBool(dst, m.Done) }

// ParseFrom decodes a whole CompleteResp body, the inverse of AppendTo.
func (m *CompleteResp) ParseFrom(b []byte) error {
	r := wire.NewReader(b)
	*m = CompleteResp{Done: r.Bool()}
	return r.Done()
}

// AppendTo appends path, client, block, alive list, exclude list, mode (u8).
func (m RecoverBlockReq) AppendTo(dst []byte) []byte {
	dst = wire.AppendString(dst, m.Path)
	dst = wire.AppendString(dst, m.Client)
	dst = wire.AppendBlock(dst, m.Block)
	dst = wire.AppendStrings(dst, m.Alive)
	dst = wire.AppendStrings(dst, m.Exclude)
	return append(dst, byte(m.Mode))
}

// ParseFrom decodes a whole RecoverBlockReq body, the inverse of AppendTo.
func (m *RecoverBlockReq) ParseFrom(b []byte) error {
	r := wire.NewReader(b)
	*m = RecoverBlockReq{Path: r.Str(), Client: r.Str(), Block: r.Block(), Alive: r.Names(), Exclude: r.Names(), Mode: proto.WriteMode(r.U8())}
	return r.Done()
}

// AppendTo appends the located block (block, counted targets).
func (m RecoverBlockResp) AppendTo(dst []byte) []byte { return wire.AppendLocated(dst, m.Located) }

// ParseFrom decodes a whole RecoverBlockResp body, the inverse of AppendTo.
func (m *RecoverBlockResp) ParseFrom(b []byte) error {
	r := wire.NewReader(b)
	*m = RecoverBlockResp{Located: r.Located()}
	return r.Done()
}

// speedEntrySize is the least one Speeds entry occupies: an empty name
// and the float.
const speedEntrySize = wire.MinStringSize + 8

// AppendTo appends client and the counted speed table (name, f64 bits)
// in map order; the receiver fills a map, so the order carries no
// meaning.
func (m ClientHeartbeatReq) AppendTo(dst []byte) []byte {
	dst = wire.AppendString(dst, m.Client)
	dst = wire.AppendCount(dst, len(m.Speeds))
	for name, speed := range m.Speeds {
		dst = wire.AppendString(dst, name)
		dst = wire.AppendFloat64(dst, speed)
	}
	return dst
}

// ParseFrom decodes a whole ClientHeartbeatReq body, the inverse of
// AppendTo. It refills the Speeds map m already holds, cleared first,
// and makes one only when there is none: a server that parses each
// heartbeat over the last one (rpc.Handle) then decodes the table
// without allocating a map, so whoever was handed the previous table
// must not still hold it.
func (m *ClientHeartbeatReq) ParseFrom(b []byte) error {
	r := wire.NewReader(b)
	speeds := m.Speeds
	clear(speeds)
	*m = ClientHeartbeatReq{Client: r.Str(), Speeds: speeds}
	if n := r.Count(speedEntrySize); n > 0 {
		if m.Speeds == nil {
			m.Speeds = make(map[string]float64, n)
		}
		for i := 0; i < n; i++ {
			name := r.Name()
			m.Speeds[name] = r.Float64()
		}
	}
	return r.Done()
}

// AppendTo appends path, client.
func (m GetBlockLocationsReq) AppendTo(dst []byte) []byte {
	dst = wire.AppendString(dst, m.Path)
	return wire.AppendString(dst, m.Client)
}

// ParseFrom decodes a whole GetBlockLocationsReq body, the inverse of AppendTo.
func (m *GetBlockLocationsReq) ParseFrom(b []byte) error {
	r := wire.NewReader(b)
	*m = GetBlockLocationsReq{Path: r.Str(), Client: r.Str()}
	return r.Done()
}

// AppendTo appends counted located blocks, file length (i64).
func (m GetBlockLocationsResp) AppendTo(dst []byte) []byte {
	dst = wire.AppendLocateds(dst, m.Blocks)
	return wire.AppendI64(dst, m.Len)
}

// ParseFrom decodes a whole GetBlockLocationsResp body, the inverse of AppendTo.
func (m *GetBlockLocationsResp) ParseFrom(b []byte) error {
	r := wire.NewReader(b)
	*m = GetBlockLocationsResp{Blocks: r.Locateds(), Len: r.I64()}
	return r.Done()
}

// AppendTo appends path.
func (m DeleteReq) AppendTo(dst []byte) []byte { return wire.AppendString(dst, m.Path) }

// ParseFrom decodes a whole DeleteReq body, the inverse of AppendTo.
func (m *DeleteReq) ParseFrom(b []byte) error {
	r := wire.NewReader(b)
	*m = DeleteReq{Path: r.Str()}
	return r.Done()
}

// AppendTo appends deleted (bool).
func (m DeleteResp) AppendTo(dst []byte) []byte { return wire.AppendBool(dst, m.Deleted) }

// ParseFrom decodes a whole DeleteResp body, the inverse of AppendTo.
func (m *DeleteResp) ParseFrom(b []byte) error {
	r := wire.NewReader(b)
	*m = DeleteResp{Deleted: r.Bool()}
	return r.Done()
}

// AppendTo appends source path, destination path.
func (m RenameReq) AppendTo(dst []byte) []byte {
	dst = wire.AppendString(dst, m.Src)
	return wire.AppendString(dst, m.Dst)
}

// ParseFrom decodes a whole RenameReq body, the inverse of AppendTo.
func (m *RenameReq) ParseFrom(b []byte) error {
	r := wire.NewReader(b)
	*m = RenameReq{Src: r.Str(), Dst: r.Str()}
	return r.Done()
}

// AppendTo appends prefix.
func (m ListReq) AppendTo(dst []byte) []byte { return wire.AppendString(dst, m.Prefix) }

// ParseFrom decodes a whole ListReq body, the inverse of AppendTo.
func (m *ListReq) ParseFrom(b []byte) error {
	r := wire.NewReader(b)
	*m = ListReq{Prefix: r.Str()}
	return r.Done()
}

// fileStatusSize is the least one FileStatus occupies: an empty path,
// four integers and a bool.
const fileStatusSize = wire.MinStringSize + 4*8 + 1

// AppendTo appends counted entries of path, length, replication, complete, block count, least live replicas.
func (m ListResp) AppendTo(dst []byte) []byte {
	dst = wire.AppendCount(dst, len(m.Files))
	for _, f := range m.Files {
		dst = wire.AppendString(dst, f.Path)
		dst = wire.AppendI64(dst, f.Len)
		dst = wire.AppendInt(dst, f.Replication)
		dst = wire.AppendBool(dst, f.Complete)
		dst = wire.AppendInt(dst, f.NumBlocks)
		dst = wire.AppendInt(dst, f.MinLiveReplicas)
	}
	return dst
}

// ParseFrom decodes a whole ListResp body, the inverse of AppendTo.
func (m *ListResp) ParseFrom(b []byte) error {
	r := wire.NewReader(b)
	*m = ListResp{}
	if n := r.Count(fileStatusSize); n > 0 {
		m.Files = make([]FileStatus, n)
		for i := range m.Files {
			m.Files[i] = FileStatus{Path: r.Str(), Len: r.I64(), Replication: r.Int(), Complete: r.Bool(), NumBlocks: r.Int(), MinLiveReplicas: r.Int()}
		}
	}
	return r.Done()
}

// AppendTo appends path.
func (m GetFileInfoReq) AppendTo(dst []byte) []byte { return wire.AppendString(dst, m.Path) }

// ParseFrom decodes a whole GetFileInfoReq body, the inverse of AppendTo.
func (m *GetFileInfoReq) ParseFrom(b []byte) error {
	r := wire.NewReader(b)
	*m = GetFileInfoReq{Path: r.Str()}
	return r.Done()
}

// AppendTo appends exists, complete (bools), length, replication, block size, block count (i64s).
func (m GetFileInfoResp) AppendTo(dst []byte) []byte {
	dst = wire.AppendBool(dst, m.Exists)
	dst = wire.AppendBool(dst, m.Complete)
	dst = wire.AppendI64(dst, m.Len)
	dst = wire.AppendInt(dst, m.Replication)
	dst = wire.AppendI64(dst, m.BlockSize)
	return wire.AppendInt(dst, m.NumBlocks)
}

// ParseFrom decodes a whole GetFileInfoResp body, the inverse of AppendTo.
func (m *GetFileInfoResp) ParseFrom(b []byte) error {
	r := wire.NewReader(b)
	*m = GetFileInfoResp{Exists: r.Bool(), Complete: r.Bool(), Len: r.I64(), Replication: r.Int(), BlockSize: r.I64(), NumBlocks: r.Int()}
	return r.Done()
}

// AppendTo appends active datanodes, racks (i64s), safe mode (bool).
func (m ClusterInfoResp) AppendTo(dst []byte) []byte {
	dst = wire.AppendInt(dst, m.ActiveDatanodes)
	dst = wire.AppendInt(dst, m.Racks)
	return wire.AppendBool(dst, m.SafeMode)
}

// ParseFrom decodes a whole ClusterInfoResp body, the inverse of AppendTo.
func (m *ClusterInfoResp) ParseFrom(b []byte) error {
	r := wire.NewReader(b)
	*m = ClusterInfoResp{ActiveDatanodes: r.Int(), Racks: r.Int(), SafeMode: r.Bool()}
	return r.Done()
}

// AppendTo appends name, address, rack, counted block report.
func (m RegisterReq) AppendTo(dst []byte) []byte {
	dst = wire.AppendString(dst, m.Name)
	dst = wire.AppendString(dst, m.Addr)
	dst = wire.AppendString(dst, m.Rack)
	return wire.AppendBlocks(dst, m.Blocks)
}

// ParseFrom decodes a whole RegisterReq body, the inverse of AppendTo.
func (m *RegisterReq) ParseFrom(b []byte) error {
	r := wire.NewReader(b)
	*m = RegisterReq{Name: r.Name(), Addr: r.Name(), Rack: r.Name(), Blocks: r.Blocks()}
	return r.Done()
}

// AppendTo appends name.
func (m HeartbeatReq) AppendTo(dst []byte) []byte { return wire.AppendString(dst, m.Name) }

// ParseFrom decodes a whole HeartbeatReq body, the inverse of AppendTo.
func (m *HeartbeatReq) ParseFrom(b []byte) error {
	r := wire.NewReader(b)
	*m = HeartbeatReq{Name: r.Name()}
	return r.Done()
}

// replicateCmdSize is the least one ReplicateCmd occupies: a block and
// an empty target list.
const replicateCmdSize = wire.BlockSize + 4

// AppendTo appends counted invalidations, counted replicate commands (block, counted targets).
func (m HeartbeatResp) AppendTo(dst []byte) []byte {
	dst = wire.AppendBlocks(dst, m.Invalidate)
	dst = wire.AppendCount(dst, len(m.Replicate))
	for _, c := range m.Replicate {
		dst = wire.AppendBlock(dst, c.Block)
		dst = wire.AppendDatanodes(dst, c.Targets)
	}
	return dst
}

// ParseFrom decodes a whole HeartbeatResp body, the inverse of AppendTo.
func (m *HeartbeatResp) ParseFrom(b []byte) error {
	r := wire.NewReader(b)
	*m = HeartbeatResp{Invalidate: r.Blocks()}
	if n := r.Count(replicateCmdSize); n > 0 {
		m.Replicate = make([]ReplicateCmd, n)
		for i := range m.Replicate {
			m.Replicate[i] = ReplicateCmd{Block: r.Block(), Targets: r.Datanodes()}
		}
	}
	return r.Done()
}

// AppendTo appends datanode name, block.
func (m BlockReceivedReq) AppendTo(dst []byte) []byte {
	dst = wire.AppendString(dst, m.Name)
	return wire.AppendBlock(dst, m.Block)
}

// ParseFrom decodes a whole BlockReceivedReq body, the inverse of AppendTo.
func (m *BlockReceivedReq) ParseFrom(b []byte) error {
	r := wire.NewReader(b)
	*m = BlockReceivedReq{Name: r.Name(), Block: r.Block()}
	return r.Done()
}

// AppendTo appends datanode name, counted blocks.
func (m BlockReceivedBatchReq) AppendTo(dst []byte) []byte {
	dst = wire.AppendString(dst, m.Name)
	return wire.AppendBlocks(dst, m.Blocks)
}

// ParseFrom decodes a whole BlockReceivedBatchReq body, the inverse of AppendTo.
func (m *BlockReceivedBatchReq) ParseFrom(b []byte) error {
	r := wire.NewReader(b)
	*m = BlockReceivedBatchReq{Name: r.Name(), Blocks: r.Blocks()}
	return r.Done()
}

// AppendTo appends rejected count (i64).
func (m BlockReceivedBatchResp) AppendTo(dst []byte) []byte { return wire.AppendInt(dst, m.Rejected) }

// ParseFrom decodes a whole BlockReceivedBatchResp body, the inverse of AppendTo.
func (m *BlockReceivedBatchResp) ParseFrom(b []byte) error {
	r := wire.NewReader(b)
	*m = BlockReceivedBatchResp{Rejected: r.Int()}
	return r.Done()
}
