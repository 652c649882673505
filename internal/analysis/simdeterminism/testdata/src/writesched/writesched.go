// Package writesched is the simdeterminism analysistest fixture: it
// borrows the name of a deterministic package so the analyzer applies,
// then exercises wall-clock calls, ambient randomness, and map-order
// leaks into the decision log, alongside the seeded and sorted clean
// idioms.
package writesched

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"
)

type decisionLog struct {
	lines []string
}

func (l *decisionLog) logf(format string, args ...any) {
	l.lines = append(l.lines, fmt.Sprintf(format, args...))
}

type pipeline struct {
	id     int
	weight float64
}

// wallClock reads real time inside the simulation.
func wallClock() int64 {
	return time.Now().UnixNano() // want `time.Now in a deterministic package`
}

// sleepy blocks on real time.
func sleepy() {
	time.Sleep(time.Millisecond) // want `time.Sleep in a deterministic package`
}

// globalRand draws from the shared, ambiently-seeded source.
func globalRand(n int) int {
	return rand.Intn(n) // want `rand.Intn draws from the global source`
}

// seeded threads an explicit source: reproducible, clean.
func seeded(seed int64, n int) int {
	rng := rand.New(rand.NewSource(seed))
	return rng.Intn(n)
}

// mapOrderLeak logs decisions straight out of a map range: the line
// order differs run to run.
func mapOrderLeak(l *decisionLog, pipes map[int]*pipeline) {
	for id, p := range pipes { // want `map iteration order feeds logf`
		l.logf("pipe %d weight %.2f", id, p.weight)
	}
}

// sortedKeys is the sanctioned shape: collect, sort, then iterate.
func sortedKeys(l *decisionLog, pipes map[int]*pipeline) {
	ids := make([]int, 0, len(pipes))
	for id := range pipes {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		l.logf("pipe %d weight %.2f", id, pipes[id].weight)
	}
}

// annotatedLoop asserts the consumer is order-insensitive.
func annotatedLoop(l *decisionLog, pipes map[int]*pipeline) {
	//smarth:deterministic — logf target aggregates, order-insensitive
	for id := range pipes {
		l.logf("seen %d", id)
	}
}

// chanLeak feeds an event channel from a map range: same class.
func chanLeak(events chan<- int, pipes map[int]*pipeline) {
	for id := range pipes { // want `map iteration order reaches a channel send`
		events <- id
	}
}

// durations is pure time arithmetic on the time package's types with no
// clock reads: clean.
func durations(d time.Duration) time.Duration {
	return d * 2
}

// Package-level state: declarations with initialisers are tables and
// sentinels, not writes.
var (
	errStalled = errors.New("stalled")
	stateNames = map[int]string{0: "idle", 1: "streaming"}
	launched   int
	lastByPipe = map[int]*pipeline{}
)

// init runs once, before any simulation: filling a table here is clean.
func init() {
	stateNames[2] = "draining"
}

// countLaunch keeps a tally where every concurrent run can reach it.
func countLaunch(p *pipeline) error {
	launched++           // want `write to package-level variable launched`
	lastByPipe[p.id] = p // want `write to package-level variable lastByPipe`
	lastByPipe[0].id = 7 // want `write to package-level variable lastByPipe`
	errStalled = nil     // want `write to package-level variable errStalled`
	return errStalled
}

// tally is the sanctioned shape: the state arrives by parameter, and
// reading a package-level table is no write.
func tally(counts map[string]int, p *pipeline) {
	counts[stateNames[p.id]]++
	local := 0
	local++
	_ = local
}

// records recycles through a pool the collector and every other
// goroutine share.
var records = sync.Pool{New: func() any { return new(pipeline) }} // want `sync.Pool in a deterministic package`

func pooled() *pipeline {
	return records.Get().(*pipeline)
}

// scratch is the sanctioned shape: a free list its one user owns.
type scratch struct {
	free []*pipeline
}

func (sc *scratch) get() *pipeline {
	if n := len(sc.free); n > 0 {
		p := sc.free[n-1]
		sc.free = sc.free[:n-1]
		return p
	}
	return new(pipeline)
}
