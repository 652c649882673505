package obs

import (
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestBucketBoundaries(t *testing.T) {
	cases := []struct {
		v    int64
		want int
	}{
		{-5, 0}, {0, 0},
		{1, 1},
		{2, 2}, {3, 2},
		{4, 3}, {7, 3},
		{8, 4},
		{1023, 10}, {1024, 11},
		{math.MaxInt64, 63},
	}
	for _, c := range cases {
		if got := BucketIndex(c.v); got != c.want {
			t.Errorf("BucketIndex(%d) = %d, want %d", c.v, got, c.want)
		}
	}
	// Every bucket's bounds must bracket exactly the values it indexes.
	for i := 0; i < NumBuckets; i++ {
		lo, hi := BucketLow(i), BucketHigh(i)
		if BucketIndex(lo) != i {
			t.Errorf("bucket %d: BucketIndex(low=%d) = %d", i, lo, BucketIndex(lo))
		}
		if i < 63 && BucketIndex(hi-1) != i {
			t.Errorf("bucket %d: BucketIndex(high-1=%d) = %d", i, hi-1, BucketIndex(hi-1))
		}
		if i < 62 && BucketIndex(hi) != i+1 {
			t.Errorf("bucket %d: BucketIndex(high=%d) = %d, want %d", i, hi, BucketIndex(hi), i+1)
		}
	}
}

func TestHistogramObserve(t *testing.T) {
	h := newHistogram()
	for _, v := range []int64{0, 1, 3, 100, 100, 5000} {
		h.Observe(v)
	}
	s := h.Snapshot()
	if s.Count != 6 || s.Sum != 5204 || s.Min != 0 || s.Max != 5000 {
		t.Fatalf("snapshot = %+v", s)
	}
	var total int64
	for _, b := range s.Buckets {
		total += b.Count
	}
	if total != s.Count {
		t.Fatalf("bucket counts sum to %d, want %d", total, s.Count)
	}
	if q := s.Quantile(0); q != 0 {
		t.Errorf("Quantile(0) = %d, want min 0", q)
	}
	if q := s.Quantile(1); q != 5000 {
		t.Errorf("Quantile(1) = %d, want max 5000", q)
	}
	// The median of {0,1,3,100,100,5000} lands in the [64,128) bucket.
	if q := s.Quantile(0.5); q != 128 {
		t.Errorf("Quantile(0.5) = %d, want 128 (upper bound of [64,128))", q)
	}
}

func TestEmptyHistogramSnapshot(t *testing.T) {
	s := newHistogram().Snapshot()
	if s.Count != 0 || s.Min != 0 || s.Max != 0 || s.Mean() != 0 || s.Quantile(0.5) != 0 {
		t.Fatalf("empty snapshot = %+v", s)
	}
}

// TestConcurrentMetrics hammers one counter and one histogram from many
// goroutines; run under -race this is the lock-freedom proof, and the
// totals prove no increment is lost.
func TestConcurrentMetrics(t *testing.T) {
	r := NewRegistry()
	c := r.Component("test")
	ctr := c.Counter("ops")
	h := c.Histogram("lat_ns")
	const goroutines, per = 8, 10000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				ctr.Inc()
				h.Observe(int64(g*per + i))
			}
		}(g)
	}
	wg.Wait()
	if got := ctr.Load(); got != goroutines*per {
		t.Fatalf("counter = %d, want %d", got, goroutines*per)
	}
	s := h.Snapshot()
	if s.Count != goroutines*per {
		t.Fatalf("histogram count = %d, want %d", s.Count, goroutines*per)
	}
	if s.Min != 0 || s.Max != goroutines*per-1 {
		t.Fatalf("min/max = %d/%d, want 0/%d", s.Min, s.Max, goroutines*per-1)
	}
}

// TestNilSafety calls every exported pointer-receiver method of the
// package through a nil receiver — the disabled-observability path
// every instrumented call site relies on.
func TestNilSafety(t *testing.T) {
	var o *Obs
	comp := o.Component("x")
	if comp.Name() != "" {
		t.Fatal("nil component should have no name")
	}
	comp.Counter("c").Inc()
	comp.Counter("c").Add(5)
	if comp.Counter("c").Load() != 0 {
		t.Fatal("nil counter should load 0")
	}
	comp.Histogram("h").Observe(1)
	comp.Histogram("h").ObserveSince(time.Time{}, time.Time{}.Add(time.Second))
	if s := comp.Histogram("h").Snapshot(); s.Count != 0 {
		t.Fatal("nil histogram should be empty")
	}
	sp := o.StartSpan("s", nil)
	if sp.ID() != 0 {
		t.Fatal("nil span should have ID 0")
	}
	sp.SetAttr("k", "v")
	sp.Event("e", "")
	sp.Packet("p", 1)
	sp.Fail(nil)
	sp.End()
	var tr *Tracer
	tr.SetPacketSampling(8)
	if tr.Snapshot() != nil {
		t.Fatal("nil tracer should snapshot nil")
	}
	if tr.StartSpan("s", nil) != nil {
		t.Fatal("nil tracer should start nil spans")
	}
	var jsonl strings.Builder
	if err := tr.WriteJSONL(&jsonl); err != nil || jsonl.Len() != 0 {
		t.Fatalf("nil tracer wrote %q, %v; want nothing", jsonl.String(), err)
	}
	var reg *Registry
	if reg.Component("x") != nil || reg.Components() != nil {
		t.Fatal("nil registry should hold no components")
	}
	reg.Render(&strings.Builder{})
	m := NewConnMetrics(nil)
	m.BytesIn.Add(1)
	m.FramesOut.Inc()
}

func TestRegistryRender(t *testing.T) {
	r := NewRegistry()
	c := r.Component("datanode/dn1")
	c.Counter("bytes_in").Add(1 << 20)
	c.Histogram("store_ns").Observe(1500)
	var b strings.Builder
	r.Render(&b)
	out := b.String()
	for _, want := range []string{"datanode/dn1", "bytes_in", "1048576", "store_ns"} {
		if !strings.Contains(out, want) {
			t.Errorf("render output missing %q:\n%s", want, out)
		}
	}
}
