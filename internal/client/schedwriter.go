package client

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"repro/internal/block"
	"repro/internal/bufpool"
	"repro/internal/checksum"
	"repro/internal/core"
	"repro/internal/nnapi"
	"repro/internal/obs"
	"repro/internal/policy"
	"repro/internal/proto"
	"repro/internal/writesched"
)

// CreateHDFS opens a file for writing with the baseline HDFS protocol:
// one pipeline at a time, and the client waits for every datanode's ack
// for every packet of a block before asking for the next block.
func (c *Client) CreateHDFS(path string, opts WriteOptions) (Writer, error) {
	return c.create(path, opts, proto.ModeHDFS)
}

// CreateSmarth opens a file for writing with SMARTH's asynchronous
// multi-pipeline protocol (Figure 4): after streaming a block to its
// first datanode and receiving the FNFA, the client immediately requests
// the next block and opens a new pipeline while the previous pipelines
// keep draining acks in the background.
func (c *Client) CreateSmarth(path string, opts WriteOptions) (Writer, error) {
	return c.create(path, opts, proto.ModeSmarth)
}

// create registers the file and builds its writer. The two protocols
// are one engine configured twice: HDFS stop-and-wait is the pipeline
// cap pinned at 1 (the producer's Ready comes only at full commit);
// SMARTH takes the paper's cap, activeDatanodes / replication, unless
// the caller set one.
func (c *Client) create(path string, opts WriteOptions, mode proto.WriteMode) (Writer, error) {
	opts.applyDefaults()
	if opts.BlockSize > proto.MaxBlockSize {
		return nil, fmt.Errorf("client: block size %d exceeds the protocol's %d", opts.BlockSize, int64(proto.MaxBlockSize))
	}
	if err := c.createFile(path, opts); err != nil {
		return nil, err
	}
	maxPipelines := 1
	if mode == proto.ModeSmarth {
		maxPipelines = opts.MaxPipelines
		if maxPipelines <= 0 {
			info, err := c.clusterInfo()
			if err != nil {
				return nil, err
			}
			maxPipelines = core.MaxPipelines(info.ActiveDatanodes, opts.Replication)
		}
	}
	w := c.newSchedWriter(path, opts, mode, maxPipelines)
	if mode == proto.ModeHDFS {
		w.stats.PeakPipelines = 1
	}
	return w, nil
}

// schedWriter adapts the client's RPC and pipeline machinery to the
// writesched engine. Both CreateHDFS and CreateSmarth return one of
// these; they differ only in engine configuration (pipeline cap and
// heartbeat cadence). Every protocol decision — launch order, exclude
// sets, Algorithm 2, the recovery loop — lives in internal/writesched;
// this file only executes effects and feeds their outcomes back:
//
//   - Namenode RPCs (addBlock, recoverBlock, complete, heartbeats) run
//     on a single FIFO worker goroutine, so the engine's effect order
//     (e.g. heartbeat-before-next-addBlock) is preserved on the wire.
//   - Each StartPipeline spawns the pipeline's sender, which opens it,
//     starts its ack reader, streams the block and returns. The ack
//     reader reports the FNFA, the drain or the first failure.
//   - The producer (Write/Close) blocks in submitBlock until the engine
//     emits Ready for the staged block: at FNFA for SMARTH, at full
//     commit for HDFS — exactly the legacy writers' pacing.
type schedWriter struct {
	c      *Client
	path   string
	opts   WriteOptions
	mode   proto.WriteMode
	opened time.Time
	span   *obs.Span // root "write" span; nil when tracing is off
	eng    *writesched.Engine

	// Producer-goroutine state (the usual single-caller io.Writer rule).
	// cur is the block being filled; submitBlock hands it to the engine
	// whole, so no block is copied — or summed — a second time.
	cur     stagedBlock
	nextIdx int
	closed  bool
	werr    error

	mu   sync.Mutex
	cond *sync.Cond
	// readyIdx is the highest block index the engine has Ready'd (-1
	// before the first); fileDone/fileErr hold the terminal outcome.
	readyIdx int
	fileDone bool
	fileErr  error
	stats    WriteStats
	// blocks holds the in-flight blocks, keyed by block index, from
	// submitBlock until BlockCommitted drops them.
	blocks map[int]*inFlight

	// FIFO namenode-RPC queue, drained by one worker goroutine.
	nnq    []func()
	nnStop bool
	wg     sync.WaitGroup
}

// inFlight is one submitted, uncommitted block. Its pipelines stream
// from staged (and re-stream from it during recovery) until
// BlockCommitted recycles it; a failed file leaves its blocks to the
// garbage collector, since a sender may still be reading them.
type inFlight struct {
	staged    stagedBlock
	span      *obs.Span     // the block's trace span, from its launch
	recSpan   *obs.Span     // its recovery episode's span, if one is open
	launched  time.Time     // when the block's first pipeline launched
	lastCause error         // the latest pipeline failure, for the recovery span
	pipe      *pipelineConn // the live pipeline, nil between attempts
}

// newSchedWriter builds the writer, its engine, and the RPC worker.
func (c *Client) newSchedWriter(path string, opts WriteOptions, mode proto.WriteMode, maxPipelines int) *schedWriter {
	w := &schedWriter{
		c:        c,
		path:     path,
		opts:     opts,
		mode:     mode,
		opened:   c.clk.Now(),
		readyIdx: -1,
		blocks:   make(map[int]*inFlight),
	}
	w.cond = sync.NewCond(&w.mu)
	w.span = c.obs.StartSpan("write", nil)
	w.span.SetAttr("path", path)
	w.span.SetAttr("mode", strings.ToLower(mode.String()))
	c.mu.Lock()
	seed := c.rng.Int63()
	c.mu.Unlock()
	w.eng = writesched.New(writesched.Config{
		Path:            path,
		Mode:            mode,
		Replication:     opts.Replication,
		MaxPipelines:    maxPipelines,
		DisableLocalOpt: opts.DisableLocalOpt,
		Seed:            seed,
		// Every writer of the client records into, and orders by, the
		// one table its heartbeats send.
		Recorder: c.recorder,
		Script:   opts.Script,
	}, w)
	w.wg.Add(1)
	go w.nnWorker()
	return w
}

// --- producer side ---

// stagedBlock is one block's payload and its chunk checksums in wire
// form, each in a bufpool buffer. The checksums are computed as the bytes
// are staged — while they are still in cache — and every packet of every
// pipeline attempt slices them, so a block is summed once however often
// it is streamed.
type stagedBlock struct {
	data *[]byte // nil when nothing is staged
	sums *[]byte // covers data's whole chunks; the short tail is summed at seal
}

// stage copies as much of p as fits into the block of size bs, sums the
// chunks that completed, and returns how much it took.
func (b *stagedBlock) stage(p []byte, bs int) int {
	const cs = checksum.DefaultChunkSize
	if b.data == nil {
		b.data = bufpool.GetCap(bs)
		b.sums = bufpool.GetCap(checksum.NumChunks(bs, cs) * checksum.BytesPerChecksum)
	}
	n := min(bs-len(*b.data), len(p))
	*b.data = append(*b.data, p[:n]...)
	b.sumThrough(len(*b.data) - len(*b.data)%cs)
	return n
}

// seal sums the block's short last chunk, if it has one. Nothing is staged
// into a sealed block.
func (b *stagedBlock) seal() { b.sumThrough(len(*b.data)) }

// sumThrough extends sums to cover data[:end]; what they cover already
// is whole chunks.
func (b *stagedBlock) sumThrough(end int) {
	const cs = checksum.DefaultChunkSize
	summed := len(*b.sums) / checksum.BytesPerChecksum * cs
	*b.sums = checksum.AppendEncoded(*b.sums, (*b.data)[summed:end], cs)
}

func (b *stagedBlock) recycle() {
	bufpool.Put(b.data)
	bufpool.Put(b.sums)
	b.data, b.sums = nil, nil
}

func (w *schedWriter) Write(p []byte) (int, error) {
	if w.closed {
		return 0, errors.New("client: write to closed file")
	}
	if w.werr != nil {
		return 0, w.werr
	}
	w.mu.Lock()
	w.stats.BytesWritten += int64(len(p))
	w.mu.Unlock()
	bs := int(w.opts.BlockSize)
	for rest := p; len(rest) > 0; {
		rest = rest[w.cur.stage(rest, bs):]
		if len(*w.cur.data) == bs {
			if err := w.submitBlock(); err != nil {
				w.werr = err
				return 0, err
			}
		}
	}
	return len(p), nil
}

func (w *schedWriter) Close() error {
	if w.closed {
		return nil
	}
	w.closed = true
	err := w.finish()
	if err != nil {
		w.span.Fail(err)
	}
	w.span.End()
	return err
}

// submitBlock hands the staged block — buffer and all — to the engine
// and blocks until the engine no longer needs the producer held back
// (its Ready event: at FNFA for SMARTH, at commit for HDFS), or the file
// fails. The next Write stages into a fresh pooled buffer.
func (w *schedWriter) submitBlock() error {
	idx := w.nextIdx
	w.nextIdx++
	w.cur.seal()
	size := int64(len(*w.cur.data))
	w.mu.Lock()
	w.blocks[idx] = &inFlight{staged: w.cur}
	w.mu.Unlock()
	w.cur = stagedBlock{}
	w.eng.Offer(size)
	w.mu.Lock()
	defer w.mu.Unlock()
	for w.readyIdx < idx && !w.fileDone {
		w.cond.Wait()
	}
	if w.fileDone && w.fileErr != nil {
		return w.fileErr
	}
	return nil
}

// finish flushes the tail block, lets the engine drain and complete the
// file, and tears everything down on failure.
func (w *schedWriter) finish() error {
	err := w.werr
	if err == nil && w.cur.data != nil {
		err = w.submitBlock()
	}
	if err == nil {
		w.eng.CloseFile()
		w.mu.Lock()
		for !w.fileDone {
			w.cond.Wait()
		}
		err = w.fileErr
		w.mu.Unlock()
	}
	w.stopWorker()
	if err != nil {
		w.werr = err
		w.teardown(err)
		return err
	}
	w.mu.Lock()
	w.stats.Duration = w.c.clk.Now().Sub(w.opened)
	w.mu.Unlock()
	return nil
}

// Stats snapshots progress, including the live pipeline count.
func (w *schedWriter) Stats() WriteStats {
	w.mu.Lock()
	defer w.mu.Unlock()
	st := w.stats
	st.ActivePipelines = w.livePipes()
	return st
}

// livePipes counts the blocks with a live pipeline. Caller holds mu.
func (w *schedWriter) livePipes() int {
	n := 0
	for _, b := range w.blocks {
		if b.pipe != nil {
			n++
		}
	}
	return n
}

// teardown fails every live pipeline with cause and fails any open
// block and recovery spans, so no goroutine, connection, or span
// outlives a failed Close.
func (w *schedWriter) teardown(cause error) {
	w.mu.Lock()
	var pipes []*pipelineConn
	var open []*obs.Span
	for _, b := range w.blocks {
		if b.pipe != nil {
			pipes = append(pipes, b.pipe)
		}
		open = append(open, b.recSpan, b.span)
		b.pipe, b.recSpan, b.span = nil, nil, nil
	}
	w.mu.Unlock()
	for _, p := range pipes {
		p.fail(cause)
	}
	for _, sp := range open {
		sp.Fail(cause)
		sp.End()
	}
}

// --- namenode RPC worker ---

func (w *schedWriter) enqueueNN(op func()) {
	w.mu.Lock()
	w.nnq = append(w.nnq, op)
	w.cond.Broadcast()
	w.mu.Unlock()
}

// nnWorker runs the queued operations one at a time in FIFO order, each
// its own RPC frame. Stopping discards any queued work — the writer stops
// it only after the engine's FileDone, when at most a trailing heartbeat
// can remain.
func (w *schedWriter) nnWorker() {
	defer w.wg.Done()
	for {
		w.mu.Lock()
		for len(w.nnq) == 0 && !w.nnStop {
			w.cond.Wait()
		}
		if w.nnStop {
			w.mu.Unlock()
			return
		}
		op := w.nnq[0]
		w.nnq = w.nnq[1:]
		w.mu.Unlock()
		op()
	}
}

func (w *schedWriter) stopWorker() {
	w.mu.Lock()
	w.nnStop = true
	w.cond.Broadcast()
	w.mu.Unlock()
	w.wg.Wait()
}

// --- writesched.Substrate ---

// AddBlock asks the namenode for the next block on the RPC worker. A
// placement failure (policy.ErrNoDatanodes, which reaches the client as
// its message only) is wrapped in writesched.ErrNoTargets so the engine
// can wait for a pipeline retirement and retry.
func (w *schedWriter) AddBlock(idx int, exclude []string, prev block.Block) {
	w.enqueueNN(func() {
		resp, err := w.c.addBlock(w.path, w.mode, exclude, prev)
		if err != nil && strings.Contains(err.Error(), policy.ErrNoDatanodes.Error()) {
			err = fmt.Errorf("%w: %v", writesched.ErrNoTargets, err)
		}
		w.eng.HandleAddBlock(idx, resp.Located, err)
	})
}

// RecoverBlock issues one Algorithm 3 re-provisioning RPC. The first
// attempt opens the block's recovery episode: stats, metrics, and a
// "recovery" trace span under the block span.
func (w *schedWriter) RecoverBlock(idx, attempt int, blk block.Block, alive, exclude []string) {
	if attempt == 1 {
		w.c.mRecoveries.Inc()
		w.mu.Lock()
		w.stats.Recoveries++
		b := w.blocks[idx]
		cause := b.lastCause
		span := w.c.obs.StartSpan("recovery", b.span)
		span.SetAttr("block", fmt.Sprint(blk))
		if cause != nil {
			span.SetAttr("cause", cause.Error())
		}
		b.recSpan = span
		w.mu.Unlock()
		w.c.opts.Logf("client %s: recovering pipeline for %v: %v", w.c.opts.Name, blk, cause)
	}
	w.enqueueNN(func() {
		resp, err := w.c.recoverBlock(nnapi.RecoverBlockReq{
			Path: w.path, Block: blk, Alive: alive, Exclude: exclude, Mode: w.mode,
		})
		if err == nil {
			w.mu.Lock()
			sp := w.blocks[idx].recSpan
			w.mu.Unlock()
			sp.Event("rebuilt", strings.Join(resp.Located.Names(), ">"))
		}
		w.eng.HandleRecovered(idx, resp.Located, err)
	})
}

func (w *schedWriter) Complete() {
	w.enqueueNN(func() { w.eng.HandleCompleteDone(w.c.completeFile(w.path)) })
}

// Heartbeat queues a speed-table push at every FNFA, so fresh
// measurements reach the namenode before the next placement decision.
// The recorder snapshot is taken on the worker at send time, so it
// reflects every measurement made while the op sat queued.
func (w *schedWriter) Heartbeat() { w.enqueueNN(w.c.SendHeartbeat) }

func (w *schedWriter) Ready(idx int) {
	w.mu.Lock()
	if idx > w.readyIdx {
		w.readyIdx = idx
	}
	w.cond.Broadcast()
	w.mu.Unlock()
}

func (w *schedWriter) BlockCommitted(idx int) {
	w.mu.Lock()
	b := w.blocks[idx]
	delete(w.blocks, idx)
	w.mu.Unlock()
	b.staged.recycle()
	w.c.mBlockCommit.ObserveSince(b.launched, w.c.clk.Now())
	b.recSpan.End()
	b.span.End()
}

func (w *schedWriter) FileDone(err error) {
	w.mu.Lock()
	w.fileDone = true
	w.fileErr = err
	w.cond.Broadcast()
	w.mu.Unlock()
}

// StartPipeline launches block idx's pipeline sender on its own
// goroutine. The initial launch opens the block's trace span and stamps
// its launch time; a recovery re-stream reuses them.
func (w *schedWriter) StartPipeline(idx int, lb block.LocatedBlock, _ policy.Shape, restream bool) {
	if !restream {
		span := w.c.obs.StartSpan("block", w.span)
		span.SetAttr("block", fmt.Sprint(lb.Block))
		w.mu.Lock()
		w.stats.BlocksLaunched++
		b := w.blocks[idx]
		b.span = span
		b.launched = w.c.clk.Now()
		w.mu.Unlock()
	}
	go w.runPipeline(idx, lb, restream)
}

// runPipeline is one pipeline attempt's sender: it opens the pipeline,
// starts its ack reader, streams the block and returns. It never waits
// on the pipeline: a write error fails it, and the ack reader reports.
func (w *schedWriter) runPipeline(idx int, lb block.LocatedBlock, restream bool) {
	w.mu.Lock()
	b := w.blocks[idx]
	staged, parent := b.staged, b.span
	if restream && b.recSpan != nil {
		parent = b.recSpan
	}
	w.mu.Unlock()

	p, err := w.c.openPipeline(lb, w.mode, &w.opts, parent, lastSeqno(len(*staged.data), w.opts.PacketSize))
	if err != nil {
		w.failed(idx, err)
		return
	}
	w.mu.Lock()
	b.pipe = p
	w.stats.PeakPipelines = max(w.stats.PeakPipelines, w.livePipes())
	w.mu.Unlock()
	go w.ackReader(idx, p, w.mode == proto.ModeSmarth && !restream)
	if err := w.c.streamBlock(p, *staged.data, *staged.sums, w.opts.PacketSize); err != nil {
		p.fail(err)
	}
	close(p.sent)
}

// ackReader is the pipeline's ack reader and the one place it resolves.
// With fnfa set (an initial SMARTH launch) it reports the FNFA as soon as
// that ack arrives; a last ack that comes first stands in for it. Once
// the sender has returned — so a commit never recycles a staging buffer
// a sender still writes from — it unregisters the pipeline and reports
// the drain or the pipeline's first failure. It owns the pipeline span.
func (w *schedWriter) ackReader(idx int, p *pipelineConn, fnfa bool) {
	reportFNFA := func() {
		if !fnfa {
			return
		}
		fnfa = false
		now := w.c.clk.Now()
		w.c.mFNFA.ObserveSince(p.opened, now)
		// The engine records the client→first-datanode speed (the
		// measurement powering Algorithms 1 and 2) and heartbeats it.
		w.eng.HandleFNFA(idx, now.Sub(p.opened))
	}
	err := p.readAcks(reportFNFA)
	if err == nil {
		reportFNFA()
	}
	p.fail(err) // closes the conn; after the last ack (err nil) nothing can fail it
	<-p.sent
	w.mu.Lock()
	w.blocks[idx].pipe = nil
	w.mu.Unlock()
	if p.err != nil {
		p.span.Fail(p.err)
		p.span.End()
		w.failed(idx, p.err)
		return
	}
	p.span.End()
	w.eng.HandleDrained(idx)
}

// failed records err as block idx's latest failure and reports it to the
// engine with the pipeline position it blames.
func (w *schedWriter) failed(idx int, err error) {
	w.mu.Lock()
	b := w.blocks[idx]
	b.lastCause = err
	span := b.span
	w.mu.Unlock()
	span.Event("pipeline_failed", err.Error())
	f := writesched.PipelineFailure{Cause: err}
	var pe *pipelineError
	if errors.As(err, &pe) {
		f.BadIndex = pe.badIndex
	}
	w.eng.HandleFailed(idx, f)
}
