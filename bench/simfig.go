package main

import (
	"bytes"
	_ "embed"
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/sim"
)

// figure13Golden is what sim.ExperimentByID("figure13").Run(1) must
// produce, byte for byte: the simulator is deterministic. Re-record it
// with `go run . -record-golden` after a deliberate model change.
//
//go:embed testdata/figure13.golden.json
var figure13Golden []byte

func encodePoints(pts []sim.Point) ([]byte, error) {
	return json.MarshalIndent(pts, "", " ")
}

// simBench repeats one paper figure on the discrete-event simulator.
// The operation is one repetition of the whole figure: four file sizes
// under both protocols.
type simBench struct {
	exp    sim.Experiment
	scale  int64
	golden []byte // nil at toy scale, where there is nothing to compare with
	last   []sim.Point
	tr     *tracer
}

func setupSim(o runOpts) (instance, error) {
	exp, ok := sim.ExperimentByID("figure13")
	if !ok {
		return nil, fmt.Errorf("sim: no experiment figure13")
	}
	b := &simBench{exp: exp, scale: 1, golden: figure13Golden, tr: o.tr}
	if o.toy {
		b.scale, b.golden = 64, nil
	}
	exp.Run(16 * b.scale) // warm-up: the same sweep at a sixteenth of the size
	return b, nil
}

func (b *simBench) close() {}

func (b *simBench) runSlice(deadline time.Time) sliceOut {
	var out sliceOut
	var gbPerS []float64
	for {
		took, _ := out.timed(b.tr, "sim.figure13", func(*span) error {
			b.last = b.exp.Run(b.scale)
			return nil
		})
		out.done(took, nil)
		var simulated int64
		for _, p := range b.last {
			simulated += p.HDFS.Bytes + p.Smarth.Bytes
		}
		gbPerS = append(gbPerS, float64(simulated)/1e9/took.Seconds())
		if !time.Now().Before(deadline) {
			out.extra = map[string]float64{"sim_GB_per_s": median(gbPerS)}
			return out
		}
	}
}

func (b *simBench) check() error {
	if len(b.last) != 4 {
		return fmt.Errorf("sim: figure13 returned %d points, want 4", len(b.last))
	}
	if b.golden == nil {
		return nil
	}
	got, err := encodePoints(b.last)
	if err != nil {
		return err
	}
	if !bytes.Equal(bytes.TrimSpace(got), bytes.TrimSpace(b.golden)) {
		return fmt.Errorf("sim: figure13 points differ from testdata/figure13.golden.json")
	}
	return nil
}
