package obs

import (
	"fmt"
	"io"
	"math"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
)

// Counter is a lock-free monotonic (or gauge-style, with negative Add)
// counter. The zero value is ready to use; a nil *Counter is a no-op.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n (which may be negative, for gauge use).
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Load returns the current value (0 for a nil counter).
func (c *Counter) Load() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// numBuckets is the number of histogram buckets: bucket 0 holds the
// value 0, bucket i (i ≥ 1) holds values in [2^(i-1), 2^i). 64 buckets
// cover every non-negative int64, so Observe never range-checks.
const numBuckets = 64

// Histogram is a bounded, lock-free histogram of non-negative int64
// samples (negative samples clamp to 0). Buckets are powers of two —
// coarse, but allocation-free, mergeable, and plenty to separate a
// 200 µs ack from a 2 s stall. A nil *Histogram is a no-op.
type Histogram struct {
	counts [numBuckets]atomic.Int64
	count  atomic.Int64
	sum    atomic.Int64
	min    atomic.Int64 // initialized to MaxInt64 by newHistogram
	max    atomic.Int64
}

func newHistogram() *Histogram {
	h := &Histogram{}
	h.min.Store(math.MaxInt64)
	return h
}

// bucketIndex returns the bucket for v: 0 for v ≤ 0, else bits.Len64(v)
// (so bucket i spans [2^(i-1), 2^i)).
func bucketIndex(v int64) int {
	if v <= 0 {
		return 0
	}
	return bits.Len64(uint64(v))
}

// bucketLow returns the inclusive lower bound of bucket i.
func bucketLow(i int) int64 {
	if i <= 0 {
		return 0
	}
	return 1 << (i - 1)
}

// bucketHigh returns the exclusive upper bound of bucket i.
func bucketHigh(i int) int64 {
	if i <= 0 {
		return 1
	}
	if i >= 63 {
		return math.MaxInt64
	}
	return 1 << i
}

// Observe records one sample. Lock-free and allocation-free.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	if v < 0 {
		v = 0
	}
	h.counts[bucketIndex(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	for {
		cur := h.min.Load()
		if v >= cur || h.min.CompareAndSwap(cur, v) {
			break
		}
	}
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			break
		}
	}
}

// ObserveSince records now-start in nanoseconds (a convenience for
// latency histograms).
func (h *Histogram) ObserveSince(start, now time.Time) {
	if h == nil {
		return
	}
	h.Observe(now.Sub(start).Nanoseconds())
}

// BucketCount is one non-empty bucket of a snapshot.
type BucketCount struct {
	Low   int64 // inclusive
	High  int64 // exclusive
	Count int64
}

// HistogramSnapshot is a point-in-time copy of a histogram. Snapshots
// taken concurrently with Observe are internally consistent enough for
// reporting (counts may trail sums by in-flight samples).
type HistogramSnapshot struct {
	Count   int64
	Sum     int64
	Min     int64
	Max     int64
	Buckets []BucketCount // non-empty buckets, ascending
}

// Snapshot copies the histogram's current state.
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	s := HistogramSnapshot{
		Count: h.count.Load(),
		Sum:   h.sum.Load(),
		Min:   h.min.Load(),
		Max:   h.max.Load(),
	}
	if s.Count == 0 {
		s.Min = 0
	}
	for i := 0; i < numBuckets; i++ {
		if n := h.counts[i].Load(); n > 0 {
			s.Buckets = append(s.Buckets, BucketCount{Low: bucketLow(i), High: bucketHigh(i), Count: n})
		}
	}
	return s
}

// Mean returns the snapshot's average sample, or 0 when empty.
func (s HistogramSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

// Quantile estimates the q-quantile (0 ≤ q ≤ 1) from the buckets,
// returning the exclusive upper bound of the bucket holding that rank.
// Min/Max tighten the ends: Quantile(0) is exact Min, Quantile(1) exact
// Max.
func (s HistogramSnapshot) Quantile(q float64) int64 {
	if s.Count == 0 {
		return 0
	}
	if q <= 0 {
		return s.Min
	}
	if q >= 1 {
		return s.Max
	}
	rank := int64(q * float64(s.Count))
	var seen int64
	for _, b := range s.Buckets {
		seen += b.Count
		if seen > rank {
			if b.High > s.Max {
				return s.Max
			}
			return b.High
		}
	}
	return s.Max
}

// Component is a named group of metrics (e.g. "client/c1",
// "datanode/dn2"). Metric registration locks; hot paths cache the
// returned pointers.
type Component struct {
	name string

	mu       sync.Mutex
	counters map[string]*Counter
	hists    map[string]*Histogram
	corder   []string
	horder   []string
}

// Name returns the component's registry name ("" for nil).
func (c *Component) Name() string {
	if c == nil {
		return ""
	}
	return c.name
}

// Counter returns the named counter, creating it on first use.
// Nil-safe: a nil component returns a nil (no-op) counter.
func (c *Component) Counter(name string) *Counter {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if ct, ok := c.counters[name]; ok {
		return ct
	}
	ct := &Counter{}
	c.counters[name] = ct
	c.corder = append(c.corder, name)
	return ct
}

// Histogram returns the named histogram, creating it on first use.
// Names ending in "_ns" render as durations. Nil-safe.
func (c *Component) Histogram(name string) *Histogram {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if h, ok := c.hists[name]; ok {
		return h
	}
	h := newHistogram()
	c.hists[name] = h
	c.horder = append(c.horder, name)
	return h
}

// Registry holds all components of a process. Safe for concurrent use.
type Registry struct {
	mu    sync.Mutex
	comps map[string]*Component
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{comps: make(map[string]*Component)}
}

// Component returns the named component, creating it on first use.
// Nil-safe: a nil registry returns a nil component.
func (r *Registry) Component(name string) *Component {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.comps[name]; ok {
		return c
	}
	c := &Component{
		name:     name,
		counters: make(map[string]*Counter),
		hists:    make(map[string]*Histogram),
	}
	r.comps[name] = c
	return c
}

// Components returns every registered component, sorted by name.
func (r *Registry) Components() []*Component {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*Component, 0, len(r.comps))
	for _, c := range r.comps {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// fmtValue renders a metric value, formatting *_ns names as durations.
func fmtValue(name string, v int64) string {
	if len(name) > 3 && name[len(name)-3:] == "_ns" {
		return time.Duration(v).Round(time.Microsecond).String()
	}
	return fmt.Sprintf("%d", v)
}

// Render writes a human-readable dump of every component's counters and
// histogram summaries. Nil-safe (writes nothing).
func (r *Registry) Render(w io.Writer) {
	for _, c := range r.Components() {
		c.mu.Lock()
		corder := append([]string(nil), c.corder...)
		horder := append([]string(nil), c.horder...)
		c.mu.Unlock()

		tb := metrics.NewTable(c.name, "metric", "count", "min", "mean", "p50", "p99", "max")
		for _, n := range corder {
			tb.Add(n, fmt.Sprintf("%d", c.Counter(n).Load()), "", "", "", "", "")
		}
		for _, n := range horder {
			s := c.Histogram(n).Snapshot()
			tb.Add(n,
				fmt.Sprintf("%d", s.Count),
				fmtValue(n, s.Min),
				fmtValue(n, int64(s.Mean())),
				fmtValue(n, s.Quantile(0.5)),
				fmtValue(n, s.Quantile(0.99)),
				fmtValue(n, s.Max),
			)
		}
		fmt.Fprintln(w, tb.String())
	}
}

// ConnMetrics is the frame-level counter set a framed connection
// (proto.Conn) feeds: byte and frame volume each way. Any field may be
// nil (no-op); a nil *ConnMetrics disables the whole set.
type ConnMetrics struct {
	BytesIn   *Counter
	BytesOut  *Counter
	FramesIn  *Counter
	FramesOut *Counter
}

// NewConnMetrics registers the standard conn counters on c ("bytes_in",
// "bytes_out", "frames_in", "frames_out"). A nil component yields
// all-nil (no-op) counters.
func NewConnMetrics(c *Component) *ConnMetrics {
	return &ConnMetrics{
		BytesIn:   c.Counter("bytes_in"),
		BytesOut:  c.Counter("bytes_out"),
		FramesIn:  c.Counter("frames_in"),
		FramesOut: c.Counter("frames_out"),
	}
}
