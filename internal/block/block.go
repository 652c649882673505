// Package block defines the identities shared by the namenode, datanodes
// and clients: blocks, generation stamps, datanode descriptors and the
// located-block results returned by addBlock.
package block

import "fmt"

// ID uniquely identifies a block within a cluster.
type ID int64

// GenStamp is a block's generation stamp. The namenode bumps it during
// pipeline recovery so stale replicas written by a failed pipeline can be
// told apart from recovered ones.
type GenStamp uint64

// Block identifies one block and its committed length.
type Block struct {
	ID       ID
	Gen      GenStamp
	NumBytes int64
}

func (b Block) String() string {
	return fmt.Sprintf("blk_%d_%d(len=%d)", b.ID, b.Gen, b.NumBytes)
}

// DatanodeInfo describes a datanode as seen by clients: a stable name, a
// dialable transport address, and a rack for topology-aware decisions.
type DatanodeInfo struct {
	Name string // stable logical name, e.g. "dn3"
	Addr string // transport address for data transfer
	Rack string // network location, e.g. "/rack-a"
}

func (d DatanodeInfo) String() string { return d.Name + "@" + d.Addr }

// LocatedBlock is the namenode's answer to addBlock: the new block plus
// the ordered pipeline of datanodes that should store it.
type LocatedBlock struct {
	Block   Block
	Targets []DatanodeInfo
}

// Names returns the target datanode names in pipeline order.
func (lb LocatedBlock) Names() []string {
	out := make([]string, len(lb.Targets))
	for i, t := range lb.Targets {
		out[i] = t.Name
	}
	return out
}
