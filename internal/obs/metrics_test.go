package obs

import (
	"go/ast"
	"go/parser"
	"go/token"
	"math"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
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
		if got := bucketIndex(c.v); got != c.want {
			t.Errorf("bucketIndex(%d) = %d, want %d", c.v, got, c.want)
		}
	}
	// Every bucket's bounds must bracket exactly the values it indexes.
	for i := 0; i < numBuckets; i++ {
		lo, hi := bucketLow(i), bucketHigh(i)
		if bucketIndex(lo) != i {
			t.Errorf("bucket %d: bucketIndex(low=%d) = %d", i, lo, bucketIndex(lo))
		}
		if i < 63 && bucketIndex(hi-1) != i {
			t.Errorf("bucket %d: bucketIndex(high-1=%d) = %d", i, hi-1, bucketIndex(hi-1))
		}
		if i < 62 && bucketIndex(hi) != i+1 {
			t.Errorf("bucket %d: bucketIndex(high=%d) = %d, want %d", i, hi, bucketIndex(hi), i+1)
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

// nilReceivers holds a nil pointer of every exported obs type with
// pointer-receiver methods: TestNilSafety calls each method through it.
var nilReceivers = []any{
	(*Obs)(nil), (*Counter)(nil), (*Histogram)(nil), (*Component)(nil),
	(*Registry)(nil), (*Tracer)(nil), (*Span)(nil),
}

// TestNilSafety calls every exported method of every nilReceivers type
// through a nil receiver with zero-valued arguments — the disabled-
// observability path every instrumented call site relies on — and wants
// no panic and only zero results. It also parses the package's source
// and fails on an exported type with pointer-receiver methods that the
// list lacks, so neither a new method nor a new type escapes it.
func TestNilSafety(t *testing.T) {
	listed := make(map[string]bool)
	for _, recv := range nilReceivers {
		v := reflect.ValueOf(recv)
		typ := v.Type().Elem().Name()
		listed[typ] = true
		for i := 0; i < v.NumMethod(); i++ {
			m := v.Method(i)
			name := "(*" + typ + ")." + v.Type().Method(i).Name
			args := make([]reflect.Value, m.Type().NumIn())
			for j := range args {
				args[j] = reflect.Zero(m.Type().In(j))
			}
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Errorf("%s on a nil receiver panicked: %v", name, r)
					}
				}()
				call := m.Call
				if m.Type().IsVariadic() {
					call = m.CallSlice
				}
				for k, out := range call(args) {
					if !out.IsZero() {
						t.Errorf("%s on a nil receiver returned %v as result %d, want the zero value", name, out, k)
					}
				}
			}()
		}
	}
	for _, typ := range pointerReceiverTypes(t) {
		if !listed[typ] {
			t.Errorf("exported type %s has pointer-receiver methods but is missing from nilReceivers", typ)
		}
	}
	if m := NewConnMetrics(nil); *m != (ConnMetrics{}) {
		t.Fatalf("NewConnMetrics(nil) = %+v, want all-nil counters", *m)
	}
}

// pointerReceiverTypes lists the exported types that the package's
// non-test files give exported pointer-receiver methods.
func pointerReceiverTypes(t *testing.T) []string {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	seen := make(map[string]bool)
	var types []string
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv == nil || !fd.Name.IsExported() {
				continue
			}
			star, ok := fd.Recv.List[0].Type.(*ast.StarExpr)
			if !ok {
				continue
			}
			if id, ok := star.X.(*ast.Ident); ok && id.IsExported() && !seen[id.Name] {
				seen[id.Name] = true
				types = append(types, id.Name)
			}
		}
	}
	if len(types) == 0 {
		t.Fatal("found no pointer-receiver methods in the package source")
	}
	return types
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
