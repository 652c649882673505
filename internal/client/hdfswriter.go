package client

import "repro/internal/proto"

// CreateHDFS opens a file for writing with the baseline HDFS protocol:
// one pipeline at a time, and the client waits for every datanode's ack
// for every packet of a block before asking for the next block.
//
// The stop-and-wait discipline is the shared writesched engine with the
// pipeline cap pinned at 1 (the producer's Ready comes only at full
// commit); see schedwriter.go for the live substrate.
func (c *Client) CreateHDFS(path string, opts WriteOptions) (Writer, error) {
	opts.applyDefaults()
	opts.Mode = proto.ModeHDFS
	if err := c.createFile(path, opts); err != nil {
		return nil, err
	}
	w := c.newSchedWriter(path, opts, 1, false)
	w.notePipelines(1)
	return w, nil
}
