// Package writesched is the substrate-agnostic write-scheduling engine:
// the one copy of the per-file block lifecycle shared by the live client
// and the discrete-event simulator. It owns every protocol *decision* on
// the write path — when to ask the namenode for the next block, which
// datanodes to exclude, Algorithm 2 local optimization, when a pipeline
// may launch under the core.MaxPipelines cap and the one-pipeline-per-
// datanode rule, FNFA processing and speed recording, Algorithm 4 error
// draining, and the Algorithm 3 recovery loop — while delegating every
// *effect* (RPCs, pipeline I/O, timers) to a Substrate. The speed table
// Algorithm 2 reads (Config.Recorder) and the conformance replay script
// (Config.Script) are the engine's own state, not the substrate's.
//
// Invariants the engine maintains:
//
//   - Blocks launch in offer order. Block i+1's addBlock is issued only
//     after block i has reached FNFA (SMARTH) or committed (HDFS), and
//     only while at most MaxPipelines launched blocks are unretired.
//   - At most one addBlock RPC is outstanding at a time, and no new
//     pipeline launches while a recovery is in progress (Algorithm 4:
//     failed blocks are recovered before more data is sent).
//   - The exclude set of an addBlock is exactly the datanodes serving
//     unretired launched blocks (the one-pipeline-per-datanode rule),
//     reported in sorted order.
//   - Every decision is appended to the Script.Log decision log at the
//     moment it executes, never when a raw substrate event arrives, so
//     two substrates replaying the same seeded scenario produce
//     byte-identical logs (see internal/conformance).
//   - Substrate calls are made without the engine lock held; a substrate
//     may re-enter the engine synchronously from any callback.
//
// Engine methods are safe for concurrent use. The Handle* family feeds
// substrate events back into the engine; Offer and CloseFile drive it
// from the producing side.
package writesched

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/block"
	"repro/internal/core"
	"repro/internal/policy"
	"repro/internal/proto"
)

// DefaultMaxRecoveryAttempts bounds Algorithm 3's re-provisioning loop
// per block (HDFS's classic pipeline-recovery retry bound).
const DefaultMaxRecoveryAttempts = 8

// ErrNoTargets is the sentinel adapters wrap around a namenode "no
// available datanodes" addBlock failure. When unretired pipelines still
// hold datanodes, the engine waits for one more of them to retire and
// retries instead of failing the file.
var ErrNoTargets = errors.New("writesched: no targets available")

// BlockState is one block's position in the lifecycle.
type BlockState int

// The block lifecycle: Pending → Allocating → Streaming → Draining →
// Committed, with Failed → Recovering → Committed on pipeline errors.
const (
	StatePending BlockState = iota
	StateAllocating
	StateStreaming
	StateDraining
	StateCommitted
	StateFailed
	StateRecovering
)

var stateNames = [...]string{"pending", "allocating", "streaming", "draining", "committed", "failed", "recovering"}

func (s BlockState) String() string {
	if s < 0 || int(s) >= len(stateNames) {
		return fmt.Sprintf("state(%d)", int(s))
	}
	return stateNames[s]
}

// PipelineFailure describes a failed pipeline attempt. BadIndex is the
// pipeline position the substrate blames, by proto.Blame's rule: the
// first datanode to report a failure, and position 0, the datanode the
// client talks to, when none does.
type PipelineFailure struct {
	BadIndex int
	Cause    error
}

// SpeedFunc overrides the (bytes, elapsed) sample recorded at a block's
// FNFA — the conformance harness scripts speeds with it so both
// substrates feed identical measurements to Algorithms 1 and 2.
type SpeedFunc func(blockIdx int, firstDN string) (bytes int64, elapsed time.Duration)

// Substrate is everything the engine needs from the outside world. Every
// method is an effect: the substrate performs it (immediately or later)
// and reports outcomes through the engine's Handle* methods.
type Substrate interface {
	// AddBlock requests the next block; report via HandleAddBlock(idx, ...).
	AddBlock(idx int, exclude []string, prev block.Block)
	// RecoverBlock re-provisions a failed pipeline (attempt starts at 1);
	// report via HandleRecovered(idx, ...).
	RecoverBlock(idx, attempt int, blk block.Block, alive, exclude []string)
	// Complete finalizes the file; report via HandleCompleteDone.
	Complete()
	// StartPipeline streams block idx through lb's mirror chain.
	// Report FNFA via HandleFNFA (first full store on lb.Targets[0];
	// skipped when restream is true), full drain via HandleDrained, and
	// errors via HandleFailed. shape is always policy.ShapeChain: the
	// parameter survives only because bench/ implements this interface.
	StartPipeline(idx int, lb block.LocatedBlock, shape policy.Shape, restream bool)
	// Heartbeat offers to ship the client's speed table to the namenode.
	// The engine asks right after every FNFA sample it records, before
	// any later AddBlock; the substrate decides whether to send now or
	// leave it to its own timer.
	Heartbeat()
	// Ready reports that block idx no longer gates the producer: at FNFA
	// for SMARTH, at commit for HDFS (emitted exactly once per block).
	Ready(idx int)
	// BlockCommitted reports block idx fully acknowledged (buffers may
	// be released).
	BlockCommitted(idx int)
	// FileDone reports the terminal outcome of the whole write.
	FileDone(err error)
}

// Config parameterizes one file's engine.
type Config struct {
	Path        string
	Mode        proto.WriteMode
	Replication int
	// MaxPipelines caps concurrently unretired pipelines (1 reproduces
	// HDFS stop-and-wait).
	MaxPipelines    int
	DisableLocalOpt bool
	// Seed fixes the Algorithm 2 swap randomness.
	Seed int64
	// Recorder is the client's speed table: every FNFA sample is
	// recorded into it, and Algorithm 2 reads it. Engines of one client
	// share it; nil gives the engine a private one.
	Recorder *core.Recorder
	// Script, when set, makes the write a conformance replay.
	Script *Script
}

// Script is the one hook the conformance harness has into a substrate's
// writes (client.WriteOptions.Script, sim.Config.Script, Config.Script):
// it replaces everything an engine would otherwise draw from a clock —
// the Algorithm 2 seed and the FNFA speed samples — and collects the
// decision log. A scripted write retires launched pipelines strictly in
// launch order, and only at launch decision points (waiting for the
// oldest to drain), so its exclude sets and its log are a pure function
// of the scenario. An unscripted write retires any pipeline as soon as
// it commits.
type Script struct {
	// Seed fixes the Algorithm 2 swap randomness (0 = the substrate's
	// own seed).
	Seed int64
	// Speed, when set, replaces measured FNFA samples.
	Speed SpeedFunc
	// Log, when set, receives the decision log.
	Log *DecisionLog
}

// DecisionLog is an append-only, concurrency-safe list of protocol
// decisions in execution order.
type DecisionLog struct {
	mu    sync.Mutex
	lines []string
}

func (l *DecisionLog) append(line string) {
	l.mu.Lock()
	l.lines = append(l.lines, line)
	l.mu.Unlock()
}

// Lines returns a copy of the log so far.
func (l *DecisionLog) Lines() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]string(nil), l.lines...)
}

// String joins the log with newlines (the conformance byte-comparison
// form).
func (l *DecisionLog) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return strings.Join(l.lines, "\n")
}

// blockRec is the engine's per-block state.
type blockRec struct {
	idx   int
	size  int64
	state BlockState
	lb    block.LocatedBlock

	exclude   []string // exclude set of the in-flight addBlock
	fnfa      bool
	readySent bool

	// waitRetire, when >= 0, delays the addBlock retry after an
	// ErrNoTargets until at most that many pipelines remain unretired.
	waitRetire int

	attempts   int
	suspects   map[string]bool
	firstCause error
	failure    *PipelineFailure
}

// Engine runs one file's write schedule. Create it with New, feed it
// blocks with Offer, finish with CloseFile, and deliver substrate
// events through the Handle* methods.
type Engine struct {
	cfg Config
	sub Substrate
	rng *rand.Rand

	mu    sync.Mutex
	busy  bool
	queue []func() // pending events
	calls []func() // substrate effects emitted by the current event

	blocks     []*blockRec
	launchQ    []int // launched, unretired block indexes in launch order
	nextLaunch int
	allocating bool
	lastBlock  block.Block
	recovering int // block index being recovered, -1 when none
	closing    bool
	completing bool
	finished   bool
	err        error
}

// New builds an engine and logs the create decision.
func New(cfg Config, sub Substrate) *Engine {
	if cfg.MaxPipelines < 1 {
		cfg.MaxPipelines = 1
	}
	if cfg.Recorder == nil {
		cfg.Recorder = core.NewRecorder()
	}
	seed := cfg.Seed
	if cfg.Script != nil && cfg.Script.Seed != 0 {
		seed = cfg.Script.Seed
	}
	if seed == 0 {
		seed = 1
	}
	e := &Engine{
		cfg:        cfg,
		sub:        sub,
		rng:        rand.New(rand.NewSource(seed)),
		recovering: -1,
	}
	e.logf("create path=%s mode=%v repl=%d cap=%d", cfg.Path, cfg.Mode, cfg.Replication, cfg.MaxPipelines)
	return e
}

// Err returns the terminal error after FileDone (nil before, or on
// success).
func (e *Engine) Err() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.err
}

// post serializes an event. Handlers run under the engine lock but only
// queue substrate effects; the effects run with the lock released, so a
// substrate may synchronously re-enter the engine (the re-entrant call
// is queued and drained by the goroutine already inside post).
func (e *Engine) post(f func()) {
	e.mu.Lock()
	e.queue = append(e.queue, f)
	if e.busy {
		e.mu.Unlock()
		return
	}
	e.busy = true
	for {
		for len(e.queue) > 0 {
			h := e.queue[0]
			e.queue = e.queue[1:]
			h()
		}
		calls := e.calls
		e.calls = nil
		if len(calls) == 0 {
			e.busy = false
			e.mu.Unlock()
			return
		}
		e.mu.Unlock()
		for _, c := range calls {
			c()
		}
		e.mu.Lock()
	}
}

// call queues a substrate effect for execution after the current event's
// handler returns.
func (e *Engine) call(f func()) { e.calls = append(e.calls, f) }

func (e *Engine) logf(format string, args ...any) {
	if s := e.cfg.Script; s != nil && s.Log != nil {
		s.Log.append(fmt.Sprintf(format, args...))
	}
}

// Offer appends the next block (size bytes of payload) to the schedule.
func (e *Engine) Offer(size int64) {
	e.post(func() {
		if e.finished || e.closing {
			return
		}
		e.blocks = append(e.blocks, &blockRec{idx: len(e.blocks), size: size, waitRetire: -1})
		e.advance()
	})
}

// CloseFile declares that no more blocks will be offered; the engine
// drains every pipeline and completes the file.
func (e *Engine) CloseFile() {
	e.post(func() {
		if e.finished || e.closing {
			return
		}
		e.closing = true
		e.logf("close")
		e.advance()
	})
}

// chainReady reports whether block idx's predecessor has progressed far
// enough for idx's addBlock: committed for HDFS stop-and-wait, FNFA (or
// committed) for SMARTH's early-launch chain.
func (e *Engine) chainReady(idx int) bool {
	if idx == 0 {
		return true
	}
	prev := e.blocks[idx-1]
	if prev.state == StateCommitted {
		return true
	}
	return e.cfg.Mode == proto.ModeSmarth && prev.fnfa
}

// excludeFor is the one-pipeline-per-datanode rule: every datanode
// serving an unretired launched block other than b, sorted, plus the
// names already in set. The rule is SMARTH's; HDFS excludes none.
func (e *Engine) excludeFor(b *blockRec, set map[string]bool) []string {
	if e.cfg.Mode == proto.ModeSmarth {
		for _, qi := range e.launchQ {
			if qi == b.idx {
				continue
			}
			for _, t := range e.blocks[qi].lb.Targets {
				set[t.Name] = true
			}
		}
	}
	if len(set) == 0 {
		return nil
	}
	out := make([]string, 0, len(set))
	for n := range set {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// needRetire reports whether block b must wait for a retirement before
// its addBlock may be issued.
func (e *Engine) needRetire(b *blockRec) bool {
	if len(e.launchQ) == 0 {
		return false
	}
	if len(e.launchQ) >= e.cfg.MaxPipelines {
		return true
	}
	return b.waitRetire >= 0 && len(e.launchQ) > b.waitRetire
}

// advance executes every decision that is currently enabled: recoveries
// first (Algorithm 4), then the single next addBlock/launch, then the
// close-time drain and complete. Called (under the engine lock) after
// every state change; it is idempotent.
func (e *Engine) advance() {
	if e.finished || e.recovering >= 0 {
		return
	}
	// Algorithm 4: a failed block blocks all further progress until its
	// recovery finishes.
	for _, b := range e.blocks {
		if b.state == StateFailed {
			e.beginRecovery(b)
			return
		}
	}
	if e.allocating {
		return
	}
	if e.nextLaunch < len(e.blocks) {
		b := e.blocks[e.nextLaunch]
		if b.state != StatePending || !e.chainReady(b.idx) {
			return
		}
		for e.needRetire(b) {
			head := e.blocks[e.launchQ[0]]
			if head.state != StateCommitted {
				return // wait for the oldest pipeline to drain
			}
			e.launchQ = e.launchQ[1:]
			e.logf("retire idx=%d", head.idx)
		}
		b.state = StateAllocating
		b.exclude = e.excludeFor(b, make(map[string]bool))
		e.allocating = true
		idx, exclude, prev := b.idx, b.exclude, e.lastBlock
		e.call(func() { e.sub.AddBlock(idx, exclude, prev) })
		return
	}
	if !e.closing {
		return
	}
	for len(e.launchQ) > 0 {
		head := e.blocks[e.launchQ[0]]
		if head.state != StateCommitted {
			return
		}
		e.launchQ = e.launchQ[1:]
		e.logf("drain idx=%d", head.idx)
	}
	if !e.completing {
		e.completing = true
		e.logf("complete path=%s blocks=%d", e.cfg.Path, len(e.blocks))
		e.call(e.sub.Complete)
	}
}

// fail terminates the file with err.
func (e *Engine) fail(err error) {
	if e.finished {
		return
	}
	e.finished = true
	e.err = err
	e.logf("abort")
	e.call(func() { e.sub.FileDone(err) })
}

// HandleAddBlock delivers the outcome of a Substrate.AddBlock call.
func (e *Engine) HandleAddBlock(idx int, lb block.LocatedBlock, err error) {
	e.post(func() {
		if e.finished || idx >= len(e.blocks) {
			return
		}
		b := e.blocks[idx]
		if b.state != StateAllocating {
			return
		}
		if err != nil {
			if errors.Is(err, ErrNoTargets) && len(e.launchQ) > 0 {
				// Unretired pipelines hold datanodes the namenode needs:
				// wait for one more retirement, then retry.
				e.logf("addblock idx=%d exclude=[%s] err=no-targets", idx, strings.Join(b.exclude, ","))
				b.state = StatePending
				b.waitRetire = len(e.launchQ) - 1
				e.allocating = false
				e.advance()
				return
			}
			e.allocating = false
			e.fail(fmt.Errorf("writesched: addBlock %d: %w", idx, err))
			return
		}
		e.lastBlock = lb.Block
		b.waitRetire = -1
		e.logf("addblock idx=%d exclude=[%s] block=%v targets=[%s]",
			idx, strings.Join(b.exclude, ","), lb.Block, strings.Join(lb.Names(), ","))
		if e.cfg.Mode == proto.ModeSmarth && !e.cfg.DisableLocalOpt && len(lb.Targets) >= 2 {
			names := lb.Names()
			byName := make(map[string]block.DatanodeInfo, len(lb.Targets))
			for _, t := range lb.Targets {
				byName[t.Name] = t
			}
			swapped := core.LocalOptimize(names, e.cfg.Recorder.Speed, e.rng)
			for i, n := range names {
				lb.Targets[i] = byName[n]
			}
			e.logf("localopt idx=%d swapped=%v order=[%s]", idx, swapped, strings.Join(names, ","))
		}
		b.lb = lb
		b.state = StateStreaming
		e.allocating = false
		e.nextLaunch++
		e.launchQ = append(e.launchQ, idx)
		e.logf("launch idx=%d targets=[%s]", idx, strings.Join(lb.Names(), ","))
		e.call(func() { e.sub.StartPipeline(idx, lb, policy.ShapeChain, false) })
		e.advance()
	})
}

// HandleFNFA delivers a block's First Node Finish Ack: the moment
// lb.Targets[0] has stored the whole block (elapsed since launch).
func (e *Engine) HandleFNFA(idx int, elapsed time.Duration) {
	e.post(func() {
		if e.finished || idx >= len(e.blocks) {
			return
		}
		b := e.blocks[idx]
		if b.state != StateStreaming {
			return
		}
		b.state = StateDraining
		b.fnfa = true
		first := b.lb.Targets[0].Name
		bytes, took := b.size, elapsed
		if e.cfg.Script != nil && e.cfg.Script.Speed != nil {
			bytes, took = e.cfg.Script.Speed(idx, first)
		}
		e.logf("fnfa idx=%d first=%s", idx, first)
		e.cfg.Recorder.Record(first, bytes, took)
		e.call(e.sub.Heartbeat)
		if !b.readySent {
			b.readySent = true
			e.call(func() { e.sub.Ready(idx) })
		}
		e.advance()
	})
}

// HandleDrained delivers a pipeline's full drain: every packet of block
// idx acknowledged by the whole pipeline.
func (e *Engine) HandleDrained(idx int) {
	e.post(func() {
		if e.finished || idx >= len(e.blocks) {
			return
		}
		b := e.blocks[idx]
		switch b.state {
		case StateStreaming, StateDraining:
			e.commit(b)
		case StateRecovering:
			// The re-streamed pipeline drained: the recovery episode is
			// over (Algorithm 3's success exit).
			e.recovering = -1
			b.fnfa = true
			e.logf("recovered idx=%d", b.idx)
			e.commit(b)
		}
	})
}

// commit moves b to Committed, releases its resources, and advances.
func (e *Engine) commit(b *blockRec) {
	b.state = StateCommitted
	if e.cfg.Script == nil {
		for qi, idx := range e.launchQ {
			if idx == b.idx {
				e.launchQ = append(e.launchQ[:qi], e.launchQ[qi+1:]...)
				e.logf("retire idx=%d", b.idx)
				break
			}
		}
	}
	idx := b.idx
	e.call(func() { e.sub.BlockCommitted(idx) })
	if !b.readySent {
		b.readySent = true
		e.call(func() { e.sub.Ready(idx) })
	}
	e.advance()
}

// HandleFailed delivers a pipeline failure for block idx.
func (e *Engine) HandleFailed(idx int, f PipelineFailure) {
	e.post(func() {
		if e.finished || idx >= len(e.blocks) {
			return
		}
		b := e.blocks[idx]
		switch b.state {
		case StateStreaming, StateDraining:
			b.state = StateFailed
			cp := f
			b.failure = &cp
			if b.firstCause == nil {
				b.firstCause = f.Cause
			}
			e.advance()
		case StateRecovering:
			// A re-streamed pipeline died too: blame another node and try
			// again (Algorithm 3's loop).
			e.markSuspect(b, f)
			e.tryRecover(b)
		}
	})
}

// beginRecovery opens a recovery episode for a failed block.
func (e *Engine) beginRecovery(b *blockRec) {
	e.recovering = b.idx
	b.state = StateRecovering
	if b.suspects == nil {
		b.suspects = make(map[string]bool)
	}
	f := *b.failure
	b.failure = nil
	e.markSuspect(b, f)
	e.tryRecover(b)
}

// markSuspect blames the target at the failure's BadIndex; an index
// outside the pipeline blames nobody.
func (e *Engine) markSuspect(b *blockRec, f PipelineFailure) {
	name := ""
	if f.BadIndex >= 0 && f.BadIndex < len(b.lb.Targets) {
		name = b.lb.Targets[f.BadIndex].Name
		b.suspects[name] = true
	}
	e.logf("fail idx=%d bad=%s", b.idx, name)
}

// tryRecover issues the next recoverBlock attempt, or fails the file
// when the attempt budget is spent.
func (e *Engine) tryRecover(b *blockRec) {
	if b.attempts >= DefaultMaxRecoveryAttempts {
		e.fail(fmt.Errorf("writesched: block %v unrecoverable after %d attempts: %w",
			b.lb.Block, DefaultMaxRecoveryAttempts, b.firstCause))
		return
	}
	b.attempts++
	alive := make([]string, 0, len(b.lb.Targets))
	for _, t := range b.lb.Targets {
		if !b.suspects[t.Name] {
			alive = append(alive, t.Name)
		}
	}
	set := make(map[string]bool, len(b.suspects))
	for n := range b.suspects {
		set[n] = true
	}
	exclude := e.excludeFor(b, set)
	e.logf("recover idx=%d attempt=%d alive=[%s] exclude=[%s]",
		b.idx, b.attempts, strings.Join(alive, ","), strings.Join(exclude, ","))
	idx, attempt, blk := b.idx, b.attempts, b.lb.Block
	e.call(func() { e.sub.RecoverBlock(idx, attempt, blk, alive, exclude) })
}

// HandleRecovered delivers the outcome of a Substrate.RecoverBlock call:
// the re-stamped block with its fresh pipeline, or a fatal RPC error.
func (e *Engine) HandleRecovered(idx int, lb block.LocatedBlock, err error) {
	e.post(func() {
		if e.finished || idx >= len(e.blocks) {
			return
		}
		b := e.blocks[idx]
		if b.state != StateRecovering {
			return
		}
		if err != nil {
			e.fail(fmt.Errorf("writesched: recoverBlock %v: %w", b.lb.Block, err))
			return
		}
		b.lb = lb
		e.logf("restream idx=%d targets=[%s]", idx, strings.Join(lb.Names(), ","))
		e.call(func() { e.sub.StartPipeline(idx, lb, policy.ShapeChain, true) })
	})
}

// HandleCompleteDone delivers the outcome of Substrate.Complete.
func (e *Engine) HandleCompleteDone(err error) {
	e.post(func() {
		if e.finished {
			return
		}
		if err != nil {
			e.fail(fmt.Errorf("writesched: complete %s: %w", e.cfg.Path, err))
			return
		}
		e.finished = true
		e.call(func() { e.sub.FileDone(nil) })
	})
}
