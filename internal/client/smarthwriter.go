package client

import (
	"repro/internal/core"
	"repro/internal/proto"
)

// CreateSmarth opens a file for writing with SMARTH's asynchronous
// multi-pipeline protocol (Figure 4): after streaming a block to its
// first datanode and receiving the FNFA, the client immediately requests
// the next block and opens a new pipeline while the previous pipelines
// keep draining acks in the background.
//
// The schedule itself — pipeline cap, one-pipeline-per-datanode exclude
// sets, Algorithm 2, Algorithm 3/4 recovery — is run by the shared
// writesched engine; see schedwriter.go for the live substrate.
func (c *Client) CreateSmarth(path string, opts WriteOptions) (Writer, error) {
	opts.applyDefaults()
	opts.Mode = proto.ModeSmarth
	if err := c.createFile(path, opts); err != nil {
		return nil, err
	}
	maxPipelines := opts.MaxPipelines
	if maxPipelines <= 0 {
		info, err := c.clusterInfo()
		if err != nil {
			return nil, err
		}
		maxPipelines = core.MaxPipelines(info.ActiveDatanodes, opts.Replication)
	}
	// SMARTH heartbeats at every FNFA so fresh measurements reach the
	// namenode before the next placement decision.
	return c.newSchedWriter(path, opts, maxPipelines, true), nil
}
