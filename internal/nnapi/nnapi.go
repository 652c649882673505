// Package nnapi defines the control-plane message types exchanged with
// the namenode over RPC: the ClientProtocol (create, addBlock, complete,
// recoverBlock, clientHeartbeat, getBlockLocations) and the
// DatanodeProtocol (register, heartbeat, blockReceived). It exists apart
// from the namenode package so clients and datanodes can share the types
// without import cycles.
//
// Every type here is also its own wire codec (codec.go): a binary,
// length-prefixed encoding built on internal/wire, which is the only
// form these messages take between processes.
package nnapi

import (
	"repro/internal/block"
	"repro/internal/proto"
)

// Method names (the RPC registry keys).
const (
	MethodCreate            = "ClientProtocol.create"
	MethodAddBlock          = "ClientProtocol.addBlock"
	MethodComplete          = "ClientProtocol.complete"
	MethodRecoverBlock      = "ClientProtocol.recoverBlock"
	MethodClientHeartbeat   = "ClientProtocol.clientHeartbeat"
	MethodGetBlockLocations = "ClientProtocol.getBlockLocations"
	MethodGetFileInfo       = "ClientProtocol.getFileInfo"
	MethodClusterInfo       = "ClientProtocol.clusterInfo"
	MethodDelete            = "ClientProtocol.delete"
	MethodRename            = "ClientProtocol.rename"
	MethodList              = "ClientProtocol.list"
	MethodRegister          = "DatanodeProtocol.register"
	MethodHeartbeat         = "DatanodeProtocol.heartbeat"
	MethodBlockReceived     = "DatanodeProtocol.blockReceived"
	// MethodBlockReceivedBatch is the datanode's delta block report: all
	// replicas finalized since the last report, in one frame.
	MethodBlockReceivedBatch = "DatanodeProtocol.blockReceivedBatch"
)

// CreateReq creates a file in the namespace (step 1 of a write).
type CreateReq struct {
	Path        string
	Client      string
	Replication int
	BlockSize   int64
	Overwrite   bool
}

// CreateResp acknowledges namespace creation.
type CreateResp struct{ empty }

// AddBlockReq allocates the next block of a file and a target pipeline.
type AddBlockReq struct {
	Path   string
	Client string
	// Mode selects the placement policy: ModeHDFS uses the default
	// topology placement, ModeSmarth runs Algorithm 1.
	Mode proto.WriteMode
	// Exclude lists datanodes that must not be chosen — the SMARTH rule
	// that a datanode may serve only one active pipeline per client, and
	// the recovery rule excluding known-bad nodes.
	Exclude []string
	// Previous is the last block the client was granted for this file
	// (zero when requesting the first block). It makes retried addBlock
	// calls idempotent: if a timed-out attempt already executed at the
	// namenode, the file's tail is a block the client never saw, and the
	// namenode hands that block back (with a fresh pipeline) instead of
	// allocating an orphan that would stall Complete forever.
	Previous block.Block
}

// AddBlockResp returns the allocated block and its pipeline.
type AddBlockResp struct {
	Located block.LocatedBlock
}

// CompleteReq finishes a file (step 6 of a write).
type CompleteReq struct {
	Path   string
	Client string
}

// CompleteResp reports whether the namenode considers the file complete
// (all blocks minimally replicated).
type CompleteResp struct {
	Done bool
}

// RecoverBlockReq re-provisions a failed pipeline: the namenode bumps the
// block's generation stamp and returns a fresh target list consisting of
// the surviving datanodes plus replacements for the failed ones
// (Algorithm 3 line 10). The client then re-streams the block.
type RecoverBlockReq struct {
	Path   string
	Client string
	Block  block.Block
	// Alive are the pipeline datanodes the client still trusts.
	Alive []string
	// Exclude are datanodes that must not be selected as replacements
	// (the failed nodes, plus SMARTH's one-pipeline-per-datanode set).
	Exclude []string
	Mode    proto.WriteMode
}

// RecoverBlockResp carries the re-stamped block and new pipeline.
type RecoverBlockResp struct {
	Located block.LocatedBlock
}

// ClientHeartbeatReq reports a client's observed per-datanode transfer
// speeds (bytes/second), every core.HeartbeatInterval.
type ClientHeartbeatReq struct {
	Client string
	Speeds map[string]float64
}

// ClientHeartbeatResp acknowledges the heartbeat.
type ClientHeartbeatResp struct{ empty }

// GetBlockLocationsReq asks where a file's blocks live. When Client is
// set, each block's replica holders are ordered by network distance from
// the client (local node first, then same rack), so reads prefer close
// replicas.
type GetBlockLocationsReq struct {
	Path   string
	Client string
}

// DeleteReq removes a file and schedules its replicas for deletion.
type DeleteReq struct {
	Path string
}

// DeleteResp reports whether the file existed.
type DeleteResp struct {
	Deleted bool
}

// RenameReq moves a file in the namespace.
type RenameReq struct {
	Src, Dst string
}

// RenameResp acknowledges the rename.
type RenameResp struct{ empty }

// ListReq enumerates files whose path starts with Prefix ("" = all).
type ListReq struct {
	Prefix string
}

// FileStatus is one List entry.
type FileStatus struct {
	Path        string
	Len         int64
	Replication int
	Complete    bool
	NumBlocks   int
	// MinLiveReplicas is the smallest live replica count across the
	// file's blocks (fsck health).
	MinLiveReplicas int
}

// ListResp carries the sorted file statuses.
type ListResp struct {
	Files []FileStatus
}

// GetBlockLocationsResp lists each block with the datanodes known to hold
// a finalized replica.
type GetBlockLocationsResp struct {
	Blocks []block.LocatedBlock
	Len    int64
}

// GetFileInfoReq asks for file metadata.
type GetFileInfoReq struct {
	Path string
}

// GetFileInfoResp describes a file.
type GetFileInfoResp struct {
	Exists      bool
	Complete    bool
	Len         int64
	Replication int
	BlockSize   int64
	NumBlocks   int
}

// ClusterInfoReq asks for cluster-wide counts.
type ClusterInfoReq struct{ empty }

// ClusterInfoResp reports live cluster geometry; clients use it to size
// the SMARTH pipeline cap (activeDatanodes / replication).
type ClusterInfoResp struct {
	ActiveDatanodes int
	Racks           int
	// SafeMode is true while the namenode rejects namespace mutations
	// after a restart (block reports still incomplete).
	SafeMode bool
}

// RegisterReq announces a datanode (on startup or after a restart), with
// a report of the finalized blocks it already holds.
type RegisterReq struct {
	Name   string
	Addr   string
	Rack   string
	Blocks []block.Block
}

// RegisterResp acknowledges registration.
type RegisterResp struct{ empty }

// HeartbeatReq is the periodic datanode liveness beacon.
type HeartbeatReq struct {
	Name string
}

// ReplicateCmd asks a datanode to copy one of its finalized replicas to
// the given targets — the namenode's response to a block becoming
// under-replicated after a datanode death.
type ReplicateCmd struct {
	Block   block.Block
	Targets []block.DatanodeInfo
}

// HeartbeatResp can carry work back to the datanode; Invalidate lists
// blocks the datanode should delete. Each entry's Gen is the stale bound:
// the datanode deletes its replica only if the replica's generation is at
// or below it, so invalidations queued before a recovery never destroy
// the re-streamed (newer-generation) replica. Replicate lists transfer
// work for under-replicated blocks this datanode holds.
type HeartbeatResp struct {
	Invalidate []block.Block
	Replicate  []ReplicateCmd
}

// BlockReceivedReq tells the namenode a datanode finalized a replica.
type BlockReceivedReq struct {
	Name  string
	Block block.Block
}

// BlockReceivedResp acknowledges the report.
type BlockReceivedResp struct{ empty }

// BlockReceivedBatchReq is a delta block report: every replica the
// datanode finalized since its previous report, in finalization order.
// It replaces a burst of per-block blockReceived RPCs with one frame;
// the namenode ingests entries in order, so a recovery's newer
// generation reported after a stale one still wins.
type BlockReceivedBatchReq struct {
	Name   string
	Blocks []block.Block
}

// BlockReceivedBatchResp acknowledges a delta report. Rejected is the
// count of entries the namenode refused (unknown block or stale
// generation); those replicas are dropped, mirroring the per-block RPC's
// error, and the datanode does not retry them.
type BlockReceivedBatchResp struct {
	Rejected int
}
