package client

import "time"

// WriteStats reports a write's progress and diagnostics. Readable while
// the write is in flight and after Close.
type WriteStats struct {
	// BytesWritten counts payload bytes accepted by Write so far.
	BytesWritten int64
	// BlocksLaunched counts blocks handed to a pipeline.
	BlocksLaunched int
	// Recoveries counts pipeline-recovery episodes (Algorithm 3/4 runs).
	Recoveries int
	// PeakPipelines is the maximum number of concurrently active
	// pipelines observed (always 1 for the HDFS writer).
	PeakPipelines int
	// ActivePipelines is the number of pipelines still draining acks at
	// snapshot time; after a successful or torn-down Close it is 0.
	// Always 0 for the HDFS writer, which never leaves a pipeline open
	// between calls.
	ActivePipelines int
	// Duration is the wall-clock (or injected-clock) time from writer
	// creation until Close completed; zero while still open.
	Duration time.Duration
}

// Writer is the handle returned by CreateHDFS and CreateSmarth: a
// WriteCloser that also reports statistics.
type Writer interface {
	Write(p []byte) (int, error)
	// Close flushes the tail block, waits for full replication of every
	// block, and completes the file at the namenode.
	Close() error
	// Stats snapshots progress and diagnostics.
	Stats() WriteStats
}
