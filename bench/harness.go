package main

import (
	"fmt"
	"runtime"
	"syscall"
	"time"
)

// Geometry of a run. Every workload is set up setupReps times (the
// median is setup_s; the last instance is the one measured), then
// measured over numSlices back-to-back slices of seconds/numSlices each.
const (
	numSlices = 5
	setupReps = 5
)

// usage is a snapshot of what the whole process has consumed so far.
type usage struct {
	cpu   time.Duration // user+sys, getrusage(RUSAGE_SELF)
	alloc uint64        // runtime.MemStats.TotalAlloc
}

func takeUsage() usage {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return usage{
		cpu:   time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		alloc: ms.TotalAlloc,
	}
}

// meter measures process CPU and allocation over the timed parts of a
// slice, so untimed work between operations (delete, verification)
// stays out of the per-operation cost. Each begin/end pair covers a
// known number of operations and yields one per-operation sample; the
// slice reports the median sample, so one operation that absorbed a GC
// cycle or a descheduling does not move the number.
type meter struct {
	from    usage
	cpu     time.Duration // totals over all pairs
	alloc   uint64
	cpuMs   []float64 // per operation, one entry per pair
	allocMB []float64
}

func (m *meter) begin() { m.from = takeUsage() }

func (m *meter) end(ops int) {
	now := takeUsage()
	cpu, alloc := now.cpu-m.from.cpu, now.alloc-m.from.alloc
	m.cpu += cpu
	m.alloc += alloc
	if ops > 0 {
		m.cpuMs = append(m.cpuMs, float64(cpu)/1e6/float64(ops))
		m.allocMB = append(m.allocMB, float64(alloc)/1e6/float64(ops))
	}
}

// sliceOut is what one slice of a workload measured.
type sliceOut struct {
	ops    []time.Duration // wall time of each completed operation
	failed int             // operations that errored or produced wrong output
	meter  meter           // CPU and allocation over the timed operations
	// extra holds the workload's own per-slice metrics by name (see
	// metricDefs), e.g. addblock_p99_us.
	extra map[string]float64
}

// timed runs one operation under a root span, timed and metered; done
// records its outcome.
func (out *sliceOut) timed(tr *tracer, name string, op func(root *span) error) (time.Duration, error) {
	root := tr.start(name, nil)
	out.meter.begin()
	start := time.Now()
	err := op(root)
	took := time.Since(start)
	out.meter.end(1)
	root.end()
	return took, err
}

func (out *sliceOut) done(took time.Duration, err error) {
	if err != nil {
		fmt.Printf("# %v\n", err)
		out.failed++
		return
	}
	out.ops = append(out.ops, took)
}

// instance is a workload that has been set up and can be measured.
type instance interface {
	// runSlice performs operations back to back, closed loop, until
	// deadline: an operation that began before the deadline finishes.
	runSlice(deadline time.Time) sliceOut
	// check verifies the outputs of the slice just run (and cleans
	// them up); an error counts as one failed operation.
	check() error
	close()
}

// finisher is an instance with a verdict on the timed region as a
// whole; an error counts as one failed operation.
type finisher interface{ finish() error }

// workload is one named entry of the benchmark.
type workload struct {
	name string
	why  string
	// bytesPerOp is the user payload one operation moves (0 for
	// workloads that move none); with rate it derives <rate> MB/s,
	// cpu_s_per_GB and alloc_MB_per_GB.
	bytesPerOp int64
	rate       string
	// setup boots, prefills and warms the workload. o carries the
	// per-run inputs.
	setup func(o runOpts) (instance, error)
	// notes describes the measured configuration for the report.
	notes []string
}

// runOpts are the inputs of one run of one workload.
type runOpts struct {
	seed    int64
	seconds float64
	// tr, set in traced runs only, records a span around each call into
	// a layer; a traced cluster also carries an obs registry, so calls
	// can be counted at the same boundaries.
	tr  *tracer
	toy bool // toy geometry, for the smoke test
}

// workloadResult is the report of one workload.
type workloadResult struct {
	Workload  string                  `json:"workload"`
	Why       string                  `json:"why"`
	Notes     []string                `json:"notes,omitempty"`
	Ops       int                     `json:"ops"`
	FailedOps int                     `json:"failed_ops"`
	Metrics   map[string]metricResult `json:"metrics"`
}

// metricResult is one metric of one workload: its definition and its
// per-slice summary.
type metricResult struct {
	metricDef
	summary
}

// setUp runs the workload's set-up reps times, closing all but the
// last instance, and returns that instance with each rep's duration.
func setUp(w *workload, o runOpts, reps int) (instance, []float64, error) {
	var inst instance
	var secs []float64
	for i := 0; i < reps; i++ {
		if inst != nil {
			inst.close()
		}
		start := time.Now()
		var err error
		if inst, err = w.setup(o); err != nil {
			return nil, nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		secs = append(secs, time.Since(start).Seconds())
	}
	return inst, secs, nil
}

// measure runs the timed region of an instance: numSlices slices, each
// followed by its untimed check. It returns per-slice values by metric
// name plus the operation counts.
func measure(w *workload, inst instance, seconds float64) (vals map[string][]float64, ops, failed int) {
	vals = make(map[string][]float64)
	sliceLen := time.Duration(seconds / numSlices * float64(time.Second))
	for s := 0; s < numSlices; s++ {
		out := inst.runSlice(time.Now().Add(sliceLen))
		if err := inst.check(); err != nil {
			fmt.Printf("# %s: slice %d check failed: %v\n", w.name, s, err)
			out.failed++
		}
		ops += len(out.ops) + out.failed
		failed += out.failed
		if len(out.ops) == 0 {
			continue // nothing completed: the slice contributes only failures
		}
		opMs, cpuMs, allocMB := medianMs(out.ops), median(out.meter.cpuMs), median(out.meter.allocMB)
		vals["op_ms"] = append(vals["op_ms"], opMs)
		vals["cpu_ms_per_op"] = append(vals["cpu_ms_per_op"], cpuMs)
		vals["alloc_MB_per_op"] = append(vals["alloc_MB_per_op"], allocMB)
		if w.bytesPerOp > 0 {
			mb := float64(w.bytesPerOp) / 1e6
			gb := float64(w.bytesPerOp) / 1e9
			vals[w.rate] = append(vals[w.rate], mb/(opMs/1e3))
			vals["cpu_s_per_GB"] = append(vals["cpu_s_per_GB"], cpuMs/1e3/gb)
			vals["alloc_MB_per_GB"] = append(vals["alloc_MB_per_GB"], allocMB/gb)
		}
		for name, v := range out.extra {
			vals[name] = append(vals[name], v)
		}
	}
	if f, ok := inst.(finisher); ok {
		if err := f.finish(); err != nil {
			fmt.Printf("# %s: %v\n", w.name, err)
			ops++
			failed++
		}
	}
	return vals, ops, failed
}

// runWorkload is one untraced run: repeated set-up, then the timed
// region, reported as per-slice summaries.
func runWorkload(w *workload, o runOpts) (*workloadResult, error) {
	inst, setupSecs, err := setUp(w, o, setupReps)
	if err != nil {
		return nil, err
	}
	defer inst.close()
	vals, ops, failed := measure(w, inst, o.seconds)
	vals["setup_s"] = setupSecs
	res := &workloadResult{
		Workload: w.name, Why: w.why, Notes: w.notes,
		Ops: ops, FailedOps: failed,
		Metrics: make(map[string]metricResult),
	}
	for name, v := range vals {
		res.Metrics[name] = metricResult{metricDefs[name], summarize(v)}
	}
	return res, nil
}
