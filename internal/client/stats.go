package client

import (
	"sync"
	"time"
)

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

// statsTracker keeps a write's WriteStats; schedWriter, the one writer
// behind both modes, embeds it.
type statsTracker struct {
	statsMu sync.Mutex
	stats   WriteStats
}

func (s *statsTracker) addBytes(n int) {
	s.statsMu.Lock()
	s.stats.BytesWritten += int64(n)
	s.statsMu.Unlock()
}

func (s *statsTracker) blockLaunched() {
	s.statsMu.Lock()
	s.stats.BlocksLaunched++
	s.statsMu.Unlock()
}

func (s *statsTracker) recovered() {
	s.statsMu.Lock()
	s.stats.Recoveries++
	s.statsMu.Unlock()
}

func (s *statsTracker) notePipelines(active int) {
	s.statsMu.Lock()
	if active > s.stats.PeakPipelines {
		s.stats.PeakPipelines = active
	}
	s.statsMu.Unlock()
}

func (s *statsTracker) setDuration(d time.Duration) {
	s.statsMu.Lock()
	s.stats.Duration = d
	s.statsMu.Unlock()
}

// Stats returns a snapshot of the write's statistics.
func (s *statsTracker) Stats() WriteStats {
	s.statsMu.Lock()
	defer s.statsMu.Unlock()
	return s.stats
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
