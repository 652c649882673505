package writesched

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/block"
	"repro/internal/core"
	"repro/internal/policy"
	"repro/internal/proto"
)

// mock is a scripted Substrate: every effect is recorded, and optional
// hooks respond synchronously — which also exercises the engine's
// re-entrancy (a substrate calling back into the engine from a call).
type mock struct {
	mu    sync.Mutex
	calls []string
	e     *Engine // set via attach; answers Complete() unless onComplete overrides
	// rec, when set, is the engine's Config.Recorder: Heartbeat logs how
	// many datanodes the table holds when it is asked to send it.
	rec *core.Recorder

	onAddBlock func(idx int, exclude []string, prev block.Block)
	onRecover  func(idx, attempt int, blk block.Block, alive, exclude []string)
	onComplete func()
	onStart    func(idx int, lb block.LocatedBlock, shape policy.Shape, restream bool)
	onReady    func(idx int)

	doneCh chan error
}

func newMock() *mock { return &mock{doneCh: make(chan error, 1)} }

func (m *mock) record(format string, args ...any) {
	m.mu.Lock()
	m.calls = append(m.calls, fmt.Sprintf(format, args...))
	m.mu.Unlock()
}

func (m *mock) callLog() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]string(nil), m.calls...)
}

func (m *mock) count(prefix string) int {
	n := 0
	for _, c := range m.callLog() {
		if strings.HasPrefix(c, prefix) {
			n++
		}
	}
	return n
}

func (m *mock) AddBlock(idx int, exclude []string, prev block.Block) {
	m.record("addblock(%d,[%s])", idx, strings.Join(exclude, ","))
	if m.onAddBlock != nil {
		m.onAddBlock(idx, exclude, prev)
	}
}

func (m *mock) RecoverBlock(idx, attempt int, blk block.Block, alive, exclude []string) {
	m.record("recover(%d,%d,[%s],[%s])", idx, attempt, strings.Join(alive, ","), strings.Join(exclude, ","))
	if m.onRecover != nil {
		m.onRecover(idx, attempt, blk, alive, exclude)
	}
}

func (m *mock) Complete() {
	m.record("complete()")
	if m.onComplete != nil {
		m.onComplete()
		return
	}
	if m.e != nil {
		m.e.HandleCompleteDone(nil)
	}
}

// attach wires the engine back into the mock for default responses.
func (m *mock) attach(e *Engine) *Engine {
	m.e = e
	return e
}

func (m *mock) StartPipeline(idx int, lb block.LocatedBlock, shape policy.Shape, restream bool) {
	m.record("start(%d,[%s],restream=%v)", idx, strings.Join(lb.Names(), ","), restream)
	if m.onStart != nil {
		m.onStart(idx, lb, shape, restream)
	}
}

func (m *mock) Heartbeat() {
	if m.rec == nil {
		m.record("heartbeat()")
		return
	}
	m.record("heartbeat(%d)", m.rec.Len())
}

func (m *mock) Ready(idx int) {
	m.record("ready(%d)", idx)
	if m.onReady != nil {
		m.onReady(idx)
	}
}

func (m *mock) BlockCommitted(idx int) { m.record("committed(%d)", idx) }

func (m *mock) FileDone(err error) {
	m.record("done(err=%v)", err)
	m.doneCh <- err
}

func (m *mock) waitDone(t *testing.T) error {
	t.Helper()
	select {
	case err := <-m.doneCh:
		return err
	case <-time.After(5 * time.Second):
		t.Fatal("FileDone never delivered")
		return nil
	}
}

// lbOf builds a LocatedBlock with the given id and target names.
func lbOf(id int64, names ...string) block.LocatedBlock {
	lb := block.LocatedBlock{Block: block.Block{ID: block.ID(id)}}
	for _, n := range names {
		lb.Targets = append(lb.Targets, block.DatanodeInfo{Name: n, Addr: n})
	}
	return lb
}

// grantSequence auto-responds to AddBlock with successive target lists.
func grantSequence(e **Engine, grants ...block.LocatedBlock) func(int, []string, block.Block) {
	next := 0
	return func(idx int, exclude []string, prev block.Block) {
		lb := grants[next]
		next++
		(*e).HandleAddBlock(idx, lb, nil)
	}
}

func assertLog(t *testing.T, log *DecisionLog, want []string) {
	t.Helper()
	got := log.Lines()
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("decision log mismatch\n--- got ---\n%s\n--- want ---\n%s",
			strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

func TestSmarthChainStrictRetire(t *testing.T) {
	m := newMock()
	log := &DecisionLog{}
	var e *Engine
	m.onAddBlock = grantSequence(&e,
		lbOf(1, "dn1", "dn2", "dn3"),
		lbOf(2, "dn4", "dn5", "dn6"),
		lbOf(3, "dn1", "dn2", "dn3"),
	)
	e = m.attach(New(Config{
		Path: "/f", Mode: proto.ModeSmarth, Replication: 3, MaxPipelines: 2,
		DisableLocalOpt: true, Script: &Script{Log: log},
	}, m))

	e.Offer(100)
	e.HandleFNFA(0, time.Second)
	e.Offer(100)
	e.HandleFNFA(1, time.Second)
	e.Offer(100) // blocked: cap reached, oldest (0) not yet drained
	if n := m.count("addblock(2"); n != 0 {
		t.Fatalf("block 2 allocated before a slot freed (%d calls)", n)
	}
	e.HandleDrained(0) // frees the slot in launch order
	e.HandleFNFA(2, time.Second)
	e.HandleDrained(1)
	e.HandleDrained(2)
	e.CloseFile()
	if err := m.waitDone(t); err != nil {
		t.Fatalf("FileDone: %v", err)
	}

	assertLog(t, log, []string{
		"create path=/f mode=SMARTH repl=3 cap=2",
		"addblock idx=0 exclude=[] block=" + lbOf(1).Block.String() + " targets=[dn1,dn2,dn3]",
		"launch idx=0 targets=[dn1,dn2,dn3]",
		"fnfa idx=0 first=dn1",
		"addblock idx=1 exclude=[dn1,dn2,dn3] block=" + lbOf(2).Block.String() + " targets=[dn4,dn5,dn6]",
		"launch idx=1 targets=[dn4,dn5,dn6]",
		"fnfa idx=1 first=dn4",
		"retire idx=0",
		"addblock idx=2 exclude=[dn4,dn5,dn6] block=" + lbOf(3).Block.String() + " targets=[dn1,dn2,dn3]",
		"launch idx=2 targets=[dn1,dn2,dn3]",
		"fnfa idx=2 first=dn1",
		"close",
		"drain idx=1",
		"drain idx=2",
		"complete path=/f blocks=3",
	})
}

func TestHDFSStopAndWait(t *testing.T) {
	m := newMock()
	log := &DecisionLog{}
	var e *Engine
	m.onAddBlock = grantSequence(&e,
		lbOf(1, "dn1", "dn2", "dn3"),
		lbOf(2, "dn2", "dn3", "dn1"),
	)
	e = m.attach(New(Config{Path: "/f", Mode: proto.ModeHDFS, Replication: 3, MaxPipelines: 1, Script: &Script{Log: log}}, m))

	e.Offer(100)
	e.Offer(100) // must wait for block 0's commit
	if n := m.count("addblock(1"); n != 0 {
		t.Fatal("HDFS allocated block 1 before block 0 committed")
	}
	e.HandleDrained(0)
	// HDFS signals Ready only at commit — never at FNFA.
	if n := m.count("ready(0)"); n != 1 {
		t.Fatalf("ready(0) called %d times, want 1", n)
	}
	e.HandleDrained(1)
	e.CloseFile()
	if err := m.waitDone(t); err != nil {
		t.Fatalf("FileDone: %v", err)
	}

	assertLog(t, log, []string{
		"create path=/f mode=HDFS repl=3 cap=1",
		"addblock idx=0 exclude=[] block=" + lbOf(1).Block.String() + " targets=[dn1,dn2,dn3]",
		"launch idx=0 targets=[dn1,dn2,dn3]",
		"retire idx=0",
		"addblock idx=1 exclude=[] block=" + lbOf(2).Block.String() + " targets=[dn2,dn3,dn1]",
		"launch idx=1 targets=[dn2,dn3,dn1]",
		"close",
		"drain idx=1",
		"complete path=/f blocks=2",
	})
}

// speeds returns a recorder holding each datanode's speed in bytes/s
// (one second per sample).
func speeds(bps map[string]float64) *core.Recorder {
	rec := core.NewRecorder()
	for dn, v := range bps {
		rec.Record(dn, int64(v), time.Second)
	}
	return rec
}

func TestLocalOptimizeReorders(t *testing.T) {
	m := newMock()
	log := &DecisionLog{}
	var e *Engine
	m.onAddBlock = grantSequence(&e, lbOf(1, "dn1", "dn2", "dn3"))
	var started block.LocatedBlock
	m.onStart = func(idx int, lb block.LocatedBlock, shape policy.Shape, restream bool) { started = lb }
	// Seed 1's first Float64 is ~0.60 <= SwapThreshold: sort, no swap.
	e = m.attach(New(Config{Path: "/f", Mode: proto.ModeSmarth, Replication: 3, MaxPipelines: 1, Seed: 1,
		Recorder: speeds(map[string]float64{"dn1": 5, "dn2": 10, "dn3": 1}), Script: &Script{Log: log}}, m))

	e.Offer(100)
	want := []string{"dn2", "dn1", "dn3"}
	if got := started.Names(); strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("local-opt order = %v, want %v", got, want)
	}
	found := false
	for _, l := range log.Lines() {
		if l == "localopt idx=0 swapped=false order=[dn2,dn1,dn3]" {
			found = true
		}
	}
	if !found {
		t.Fatalf("localopt line missing from log:\n%s", log.String())
	}
}

func TestPreFNFAFailureRecovers(t *testing.T) {
	m := newMock()
	log := &DecisionLog{}
	var e *Engine
	m.onAddBlock = grantSequence(&e, lbOf(1, "dn1", "dn2", "dn3"))
	m.onRecover = func(idx, attempt int, blk block.Block, alive, exclude []string) {
		e.HandleRecovered(idx, lbOf(1, "dn2", "dn3", "dn4"), nil)
	}
	e = m.attach(New(Config{Path: "/f", Mode: proto.ModeSmarth, Replication: 3, MaxPipelines: 2,
		DisableLocalOpt: true, Script: &Script{Log: log}}, m))

	e.Offer(100)
	e.HandleFailed(0, PipelineFailure{BadIndex: 0, Cause: errors.New("dial dn1: refused")})
	// Recovery happened synchronously via the mock; the re-streamed
	// pipeline drains now.
	e.HandleDrained(0)
	// A block that failed before FNFA becomes Ready only after recovery.
	if n := m.count("ready(0)"); n != 1 {
		t.Fatalf("ready(0) called %d times, want 1", n)
	}
	e.CloseFile()
	if err := m.waitDone(t); err != nil {
		t.Fatalf("FileDone: %v", err)
	}

	assertLog(t, log, []string{
		"create path=/f mode=SMARTH repl=3 cap=2",
		"addblock idx=0 exclude=[] block=" + lbOf(1).Block.String() + " targets=[dn1,dn2,dn3]",
		"launch idx=0 targets=[dn1,dn2,dn3]",
		"fail idx=0 bad=dn1",
		"recover idx=0 attempt=1 alive=[dn2,dn3] exclude=[dn1]",
		"restream idx=0 targets=[dn2,dn3,dn4]",
		"recovered idx=0",
		"close",
		"drain idx=0",
		"complete path=/f blocks=1",
	})
}

// A post-FNFA failure must be recovered before any new block launches
// (Algorithm 4), and the recovered block's fresh targets join the
// exclude set.
func TestPostFNFAFailureBlocksNextLaunch(t *testing.T) {
	m := newMock()
	log := &DecisionLog{}
	var e *Engine
	grants := []block.LocatedBlock{lbOf(1, "dn1", "dn2", "dn3"), lbOf(2, "dn5", "dn6", "dn7")}
	next := 0
	m.onAddBlock = func(idx int, exclude []string, prev block.Block) {
		lb := grants[next]
		next++
		e.HandleAddBlock(idx, lb, nil)
	}
	e = m.attach(New(Config{Path: "/f", Mode: proto.ModeSmarth, Replication: 3, MaxPipelines: 3,
		DisableLocalOpt: true, Script: &Script{Log: log}}, m))

	e.Offer(100)
	e.HandleFNFA(0, time.Second)
	e.HandleFailed(0, PipelineFailure{Cause: errors.New("ack stream broke")})
	e.Offer(100) // must NOT allocate while block 0 awaits recovery
	if n := m.count("addblock(1"); n != 0 {
		t.Fatal("block 1 allocated while a failed block awaited recovery")
	}
	e.HandleRecovered(0, lbOf(1, "dn2", "dn3", "dn4"), nil)
	e.HandleDrained(0) // recovery restream drains → episode over → block 1 proceeds
	if n := m.count("addblock(1"); n != 1 {
		t.Fatalf("block 1 allocated %d times after recovery, want 1", n)
	}
	// FNFA had already made block 0 Ready; recovery must not re-send it.
	if n := m.count("ready(0)"); n != 1 {
		t.Fatalf("ready(0) called %d times, want 1", n)
	}
	e.HandleFNFA(1, time.Second)
	e.HandleDrained(1)
	e.CloseFile()
	if err := m.waitDone(t); err != nil {
		t.Fatalf("FileDone: %v", err)
	}

	// The recovery ran before HandleRecovered was scripted, so the
	// recover call shows the engine-side decisions; exclude for block 1
	// reflects the RECOVERED pipeline of block 0.
	wantSub := "addblock idx=1 exclude=[dn2,dn3,dn4]"
	found := false
	for _, l := range log.Lines() {
		if strings.HasPrefix(l, wantSub) {
			found = true
		}
	}
	if !found {
		t.Fatalf("want log line starting %q, got:\n%s", wantSub, log.String())
	}
}

func TestRecoveryAttemptsExhausted(t *testing.T) {
	m := newMock()
	log := &DecisionLog{}
	var e *Engine
	dn := func(i int) string { return fmt.Sprintf("dn%d", i) }
	m.onAddBlock = grantSequence(&e, lbOf(1, "dn1", "dn2", "dn3"))
	// Attempt k re-streams to [dn(k+1), dn(k+2), dn(k+3)].
	m.onRecover = func(idx, attempt int, blk block.Block, alive, exclude []string) {
		e.HandleRecovered(idx, lbOf(1, dn(attempt+1), dn(attempt+2), dn(attempt+3)), nil)
	}
	root := errors.New("root cause")
	e = m.attach(New(Config{Path: "/f", Mode: proto.ModeSmarth, Replication: 3, MaxPipelines: 2,
		DisableLocalOpt: true, Script: &Script{Log: log}}, m))

	e.Offer(100)
	e.HandleFailed(0, PipelineFailure{BadIndex: 0, Cause: root}) // blames dn1, attempt 1
	// Every restream fails too; the last one finds the budget spent and
	// fails the file.
	for i := 0; i < DefaultMaxRecoveryAttempts; i++ {
		e.HandleFailed(0, PipelineFailure{Cause: errors.New("restream died")})
	}
	err := m.waitDone(t)
	if err == nil {
		t.Fatal("file succeeded after exhausting recovery attempts")
	}
	if !errors.Is(err, root) {
		t.Fatalf("terminal error %v does not wrap the first cause %v", err, root)
	}
	if got := m.count("recover("); got != DefaultMaxRecoveryAttempts {
		t.Fatalf("recoverBlock called %d times, want %d", got, DefaultMaxRecoveryAttempts)
	}
	// A failure that names no hop blames position 0 (proto.Blame's
	// table, proto.TestBlame): dn1, then each restream's head, dn2 on.
	wants := []string{"abort"}
	for i := 1; i <= DefaultMaxRecoveryAttempts+1; i++ {
		wants = append(wants, "fail idx=0 bad="+dn(i))
	}
	for _, want := range wants {
		found := false
		for _, l := range log.Lines() {
			if l == want {
				found = true
			}
		}
		if !found {
			t.Fatalf("log missing %q:\n%s", want, log.String())
		}
	}
}

func TestRecoverRPCErrorIsFatal(t *testing.T) {
	m := newMock()
	var e *Engine
	m.onAddBlock = grantSequence(&e, lbOf(1, "dn1", "dn2", "dn3"))
	rpcErr := errors.New("namenode: lease expired")
	m.onRecover = func(idx, attempt int, blk block.Block, alive, exclude []string) {
		e.HandleRecovered(idx, block.LocatedBlock{}, rpcErr)
	}
	e = m.attach(New(Config{Path: "/f", Mode: proto.ModeSmarth, MaxPipelines: 2, DisableLocalOpt: true}, m))
	e.Offer(100)
	e.HandleFailed(0, PipelineFailure{BadIndex: 0, Cause: errors.New("x")})
	if err := m.waitDone(t); !errors.Is(err, rpcErr) {
		t.Fatalf("terminal error %v does not wrap recoverBlock error", err)
	}
}

func TestAddBlockErrorIsFatal(t *testing.T) {
	m := newMock()
	var e *Engine
	boom := errors.New("namenode: safe mode")
	m.onAddBlock = func(idx int, exclude []string, prev block.Block) {
		e.HandleAddBlock(idx, block.LocatedBlock{}, boom)
	}
	e = m.attach(New(Config{Path: "/f", Mode: proto.ModeSmarth, MaxPipelines: 2, DisableLocalOpt: true}, m))
	e.Offer(100)
	if err := m.waitDone(t); !errors.Is(err, boom) {
		t.Fatalf("terminal error %v does not wrap addBlock error", err)
	}
	if err := e.Err(); !errors.Is(err, boom) {
		t.Fatalf("Err() = %v, want wrap of %v", err, boom)
	}
}

func TestNoTargetsRetiresAndRetries(t *testing.T) {
	m := newMock()
	log := &DecisionLog{}
	var e *Engine
	calls := 0
	m.onAddBlock = func(idx int, exclude []string, prev block.Block) {
		calls++
		switch calls {
		case 1:
			e.HandleAddBlock(idx, lbOf(1, "dn1", "dn2", "dn3"), nil)
		case 2:
			e.HandleAddBlock(idx, block.LocatedBlock{}, fmt.Errorf("%w: cluster busy", ErrNoTargets))
		default:
			e.HandleAddBlock(idx, lbOf(2, "dn1", "dn2", "dn3"), nil)
		}
	}
	e = m.attach(New(Config{Path: "/f", Mode: proto.ModeSmarth, Replication: 3, MaxPipelines: 2,
		DisableLocalOpt: true, Script: &Script{Log: log}}, m))

	e.Offer(100)
	e.HandleFNFA(0, time.Second)
	e.Offer(100) // addBlock fails with no-targets → wait for a retirement
	if calls != 2 {
		t.Fatalf("addBlock called %d times, want 2 (grant + no-targets)", calls)
	}
	e.HandleDrained(0) // retirement → retry
	if calls != 3 {
		t.Fatalf("addBlock called %d times after retirement, want 3", calls)
	}
	e.HandleFNFA(1, time.Second)
	e.HandleDrained(1)
	e.CloseFile()
	if err := m.waitDone(t); err != nil {
		t.Fatalf("FileDone: %v", err)
	}
	found := false
	for _, l := range log.Lines() {
		if l == "addblock idx=1 exclude=[dn1,dn2,dn3] err=no-targets" {
			found = true
		}
	}
	if !found {
		t.Fatalf("no-targets line missing:\n%s", log.String())
	}
}

func TestNoTargetsWithNoPipelinesIsFatal(t *testing.T) {
	m := newMock()
	var e *Engine
	m.onAddBlock = func(idx int, exclude []string, prev block.Block) {
		e.HandleAddBlock(idx, block.LocatedBlock{}, fmt.Errorf("%w: empty cluster", ErrNoTargets))
	}
	e = m.attach(New(Config{Path: "/f", Mode: proto.ModeSmarth, MaxPipelines: 2}, m))
	e.Offer(100)
	if err := m.waitDone(t); !errors.Is(err, ErrNoTargets) {
		t.Fatalf("terminal error %v, want wrap of ErrNoTargets", err)
	}
}

func TestEmptyFileCompletes(t *testing.T) {
	m := newMock()
	log := &DecisionLog{}
	e := m.attach(New(Config{Path: "/empty", Mode: proto.ModeHDFS, MaxPipelines: 1, Script: &Script{Log: log}}, m))
	e.CloseFile()
	if err := m.waitDone(t); err != nil {
		t.Fatalf("FileDone: %v", err)
	}
	assertLog(t, log, []string{
		"create path=/empty mode=HDFS repl=0 cap=1",
		"close",
		"complete path=/empty blocks=0",
	})
}

// The FNFA speed record, the protocol heartbeat, and any later addBlock
// must execute in exactly that order — the invariant that makes the
// namenode's registry state identical across substrates. The mock's
// heartbeat reads the shared recorder, so it shows the sample is in the
// table before the heartbeat is asked for.
func TestProtocolHeartbeatOrdering(t *testing.T) {
	m := newMock()
	m.rec = core.NewRecorder()
	var e *Engine
	m.onAddBlock = grantSequence(&e,
		lbOf(1, "dn1", "dn2", "dn3"),
		lbOf(2, "dn4", "dn5", "dn6"),
	)
	m.onReady = func(idx int) {
		if idx == 0 {
			e.Offer(100) // producer offers the next block on Ready
		} else {
			e.CloseFile()
		}
	}
	script := &Script{Speed: func(blockIdx int, firstDN string) (int64, time.Duration) {
		return 1 << 20, time.Second
	}}
	e = m.attach(New(Config{Path: "/f", Mode: proto.ModeSmarth, Replication: 3, MaxPipelines: 2,
		DisableLocalOpt: true, Recorder: m.rec, Script: script}, m))

	e.Offer(100)
	e.HandleFNFA(0, 5*time.Second) // raw sample replaced by (1MiB, 1s)
	e.HandleFNFA(1, 5*time.Second)
	e.HandleDrained(0)
	e.HandleDrained(1)
	if err := m.waitDone(t); err != nil {
		t.Fatalf("FileDone: %v", err)
	}

	var seq []string
	for _, c := range m.callLog() {
		if strings.HasPrefix(c, "heartbeat(") || strings.HasPrefix(c, "addblock(1") {
			seq = append(seq, c)
		}
	}
	want := []string{"heartbeat(1)", "addblock(1,[dn1,dn2,dn3])", "heartbeat(2)"}
	if strings.Join(seq, ";") != strings.Join(want, ";") {
		t.Fatalf("ordering = %v, want %v", seq, want)
	}
	for _, dn := range []string{"dn1", "dn4"} {
		if got := m.rec.Speed(dn); got != 1<<20 {
			t.Fatalf("recorded speed of %s = %v, want the scripted %d", dn, got, 1<<20)
		}
	}
}

// Two engines given one Recorder — the live client's per-client table,
// shared by every writer of the client — see each other's FNFA samples
// in Algorithm 2: what the first file measured orders the second's
// pipeline.
func TestEnginesShareRecorder(t *testing.T) {
	rec := core.NewRecorder()
	first := newMock()
	var e1 *Engine
	first.onAddBlock = grantSequence(&e1, lbOf(1, "dn1", "dn2", "dn3"), lbOf(2, "dn2", "dn4", "dn5"))
	e1 = first.attach(New(Config{Path: "/a", Mode: proto.ModeSmarth, Replication: 3, MaxPipelines: 1,
		DisableLocalOpt: true, Recorder: rec}, first))
	e1.Offer(1 << 20)
	e1.HandleFNFA(0, time.Second) // dn1: 1 MiB/s
	e1.HandleDrained(0)
	e1.Offer(10 << 20)
	e1.HandleFNFA(1, time.Second) // dn2: 10 MiB/s
	e1.HandleDrained(1)
	e1.CloseFile()
	if err := first.waitDone(t); err != nil {
		t.Fatalf("first file: %v", err)
	}

	second := newMock()
	log := &DecisionLog{}
	var e2 *Engine
	second.onAddBlock = grantSequence(&e2, lbOf(3, "dn1", "dn2", "dn3"))
	// Seed 1's first Float64 is ~0.60 <= SwapThreshold: sort, no swap.
	e2 = second.attach(New(Config{Path: "/b", Mode: proto.ModeSmarth, Replication: 3, MaxPipelines: 1,
		Seed: 1, Recorder: rec, Script: &Script{Log: log}}, second))
	e2.Offer(100)
	want := "localopt idx=0 swapped=false order=[dn2,dn1,dn3]"
	if !slices.Contains(log.Lines(), want) {
		t.Fatalf("second engine did not order by the first's samples; want %q in:\n%s", want, log.String())
	}
}

// Default (eager) retirement frees a slot the moment any pipeline
// commits — the legacy live-client behavior.
func TestEagerRetireFreesSlotOnCommit(t *testing.T) {
	m := newMock()
	var e *Engine
	m.onAddBlock = grantSequence(&e,
		lbOf(1, "dn1", "dn2", "dn3"),
		lbOf(2, "dn4", "dn5", "dn6"),
		lbOf(3, "dn1", "dn2", "dn3"),
	)
	e = m.attach(New(Config{Path: "/f", Mode: proto.ModeSmarth, Replication: 3, MaxPipelines: 2,
		DisableLocalOpt: true}, m))

	e.Offer(100)
	e.HandleFNFA(0, time.Second)
	e.Offer(100)
	e.HandleFNFA(1, time.Second)
	e.Offer(100)       // cap reached
	e.HandleDrained(1) // the NEWER pipeline commits first
	if n := m.count("addblock(2"); n != 1 {
		t.Fatal("eager retire did not free the slot on an out-of-order commit")
	}
	e.HandleFNFA(2, time.Second)
	e.HandleDrained(0)
	e.HandleDrained(2)
	e.CloseFile()
	if err := m.waitDone(t); err != nil {
		t.Fatalf("FileDone: %v", err)
	}
}

// Hammer the engine from concurrent goroutines (run under -race): a
// substrate that reports FNFA and drain from its own goroutines, and
// whose heartbeats read the speed table the engine records into.
func TestConcurrentSubstrate(t *testing.T) {
	m := newMock()
	m.rec = core.NewRecorder()
	var e *Engine
	var grantMu sync.Mutex
	nextID := int64(0)
	m.onAddBlock = func(idx int, exclude []string, prev block.Block) {
		grantMu.Lock()
		nextID++
		id := nextID
		grantMu.Unlock()
		dn := []string{"dn1", "dn2", "dn3", "dn4", "dn5", "dn6"}[idx%6]
		e.HandleAddBlock(idx, lbOf(id, dn, "dn7", "dn8"), nil)
	}
	m.onStart = func(idx int, lb block.LocatedBlock, shape policy.Shape, restream bool) {
		go func() {
			e.HandleFNFA(idx, time.Millisecond)
			e.HandleDrained(idx)
		}()
	}
	total := 16
	offered := 1
	var offMu sync.Mutex
	m.onReady = func(idx int) {
		offMu.Lock()
		defer offMu.Unlock()
		if offered < total {
			offered++
			e.Offer(1 << 10)
		} else if offered == total {
			offered++
			e.CloseFile()
		}
	}
	e = m.attach(New(Config{Path: "/f", Mode: proto.ModeSmarth, Replication: 3, MaxPipelines: 3, Recorder: m.rec}, m))
	e.Offer(1 << 10)
	if err := m.waitDone(t); err != nil {
		t.Fatalf("FileDone: %v", err)
	}
	if n := m.count("committed("); n != total {
		t.Fatalf("%d blocks committed, want %d", n, total)
	}
}
