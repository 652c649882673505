package sim

import (
	"encoding/json"
	"errors"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/ec2"
	"repro/internal/proto"
)

// withProcs runs fn once per GOMAXPROCS setting — one worker, two, and
// more workers than this machine has cores — and restores the setting.
func withProcs(t *testing.T, fn func(t *testing.T, procs int)) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		fn(t, procs)
	}
}

// settledGoroutines returns the goroutine count once it has held still
// for 20 ms (or a second has passed). A RunAll worker's last act is
// wg.Done, so the workers of the RunAll before — an earlier test's, or an
// earlier round's — may still be returning when RunAll has.
func settledGoroutines() int {
	n, since := runtime.NumGoroutine(), time.Now()
	for start := since; time.Since(since) < 20*time.Millisecond && time.Since(start) < time.Second; time.Sleep(time.Millisecond) {
		if m := runtime.NumGoroutine(); m != n {
			n, since = m, time.Now()
		}
	}
	return n
}

// A failing config is reported, not fatal: RunAll names the first failure
// in the caller's order however the workers interleave, still runs every
// other config, and leaves no worker behind.
func TestRunAllReportsFirstErrorInOrder(t *testing.T) {
	good := Config{Preset: ec2.SmallCluster, FileSize: 4 << 20, BlockSize: 1 << 20, Mode: proto.ModeSmarth}
	bad := good
	bad.Preset.Datanodes = nil // nothing to place on: the first AddBlock fails
	bad.FileSize = 64 << 20    // and the failing runs are the first ones taken
	cfgs := []Config{good, bad, good, good, bad, good}

	withProcs(t, func(t *testing.T, procs int) {
		before := settledGoroutines()
		res, err := RunAll(cfgs)
		// A worker's last act is wg.Done; give it the moment it needs to
		// finish returning before counting.
		for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() > before && time.Now().Before(deadline); {
			runtime.Gosched()
		}
		if after := runtime.NumGoroutine(); after != before {
			t.Errorf("GOMAXPROCS %d: %d goroutines before RunAll, %d after", procs, before, after)
		}
		var ce *ConfigError
		if !errors.As(err, &ce) || ce.Index != 1 || !strings.Contains(err.Error(), "no available datanodes") {
			t.Fatalf("GOMAXPROCS %d: error = %v, want config 1's placement failure", procs, err)
		}
		for i, r := range res {
			if failed := i == 1 || i == 4; failed != (r.Bytes == 0) {
				t.Errorf("GOMAXPROCS %d: result %d has %d bytes (config fails: %v)", procs, i, r.Bytes, failed)
			}
		}
	})

	// A figure turns that error into a panic on the caller's goroutine —
	// where a recover can see it — that names the point.
	defer func() {
		if msg, _ := recover().(string); !strings.HasPrefix(msg, "sim: broken (HDFS): ") {
			t.Errorf("runPoints panicked with %q, want the broken point's label and first mode", msg)
		}
	}()
	runPoints([]point{{"fine", good}, {"broken", bad}})
}

// A figure's output does not depend on how many workers ran it.
func TestExperimentsParallelDeterministic(t *testing.T) {
	for _, id := range []string{"figure13", "figure10"} {
		e, _ := ExperimentByID(id)
		var want []byte
		withProcs(t, func(t *testing.T, procs int) {
			got, err := json.Marshal(e.Run(goldenScale))
			if err != nil {
				t.Fatal(err)
			}
			if want == nil {
				want = got
			} else if string(got) != string(want) {
				t.Errorf("%s: GOMAXPROCS %d produced different points than GOMAXPROCS 1", id, procs)
			}
		})
	}
}

// A run on a used scratch returns what it returns on a new one, whatever
// the run before left behind: aborted launches with packets and flights
// still out and events queued behind Stop (ext-fault), trace spans
// (ext-traced), then the run with the deepest backlogs of figure 13.
func TestScratchHygiene(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates 8 GB twice")
	}
	smarth := func(c Config) Config { c.Mode = proto.ModeSmarth; return c }
	sc := newScratch()
	for _, step := range []struct {
		name string
		cfg  Config
	}{
		{"ext-fault", smarth(throttledExt(extFault))},
		{"ext-traced", smarth(throttledExt(extTraced))},
		{"figure13-8GB", smarth(sizeSweep(ec2.HeteroCluster, 0, 1)[3].cfg)},
	} {
		want, err := newScratch().run(step.cfg)
		if err != nil {
			t.Fatalf("%s on a new scratch: %v", step.name, err)
		}
		got, err := sc.run(step.cfg)
		if err != nil {
			t.Fatalf("%s on the used scratch: %v", step.name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: the result on the used scratch differs from a new scratch's", step.name)
		}
	}

	sc.reset(0)
	if sc.eng.Now() != 0 || sc.eng.Processed != 0 || sc.eng.ReserveSeq() != 0 {
		t.Errorf("reset engine: now %v, processed %d, and the next seq is not 0", sc.eng.Now(), sc.eng.Processed)
	}
	if want := 64 * len(sc.slabs); len(sc.freePackets) != want {
		t.Errorf("reset left %d of %d packet records free", len(sc.freePackets), want)
	}
	for _, p := range sc.freePackets {
		if p.l != nil {
			t.Fatal("a free packet record still points at its launch")
		}
	}
}
