package wire

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"unsafe"

	"repro/internal/block"
)

func TestRoundTrip(t *testing.T) {
	lb := block.LocatedBlock{
		Block:   block.Block{ID: -7, Gen: math.MaxUint64, NumBytes: 1 << 40},
		Targets: []block.DatanodeInfo{{Name: "dn1", Addr: "h:1", Rack: "/r"}, {}},
	}
	var b []byte
	b = AppendBool(b, true)
	b = AppendU64(b, math.MaxUint64)
	b = AppendI64(b, math.MinInt64)
	b = AppendInt(b, -3)
	b = AppendFloat64(b, 0.1+0.2)
	b = AppendString(b, "héllo")
	b = AppendStrings(b, []string{"a", "", "c"})
	b = AppendBlocks(b, []block.Block{lb.Block, {}})
	b = AppendLocateds(b, []block.LocatedBlock{lb, {}})

	r := NewReader(b)
	if v := r.Bool(); !v {
		t.Error("bool")
	}
	if v := r.U64(); v != math.MaxUint64 {
		t.Error("u64", v)
	}
	if v := r.I64(); v != math.MinInt64 {
		t.Error("i64", v)
	}
	if v := r.Int(); v != -3 {
		t.Error("int", v)
	}
	if v := r.Float64(); v != 0.1+0.2 {
		t.Error("float", v)
	}
	if v := r.Str(); v != "héllo" {
		t.Error("string", v)
	}
	if v := r.Names(); !reflect.DeepEqual(v, []string{"a", "", "c"}) {
		t.Error("names", v)
	}
	if v := r.Blocks(); !reflect.DeepEqual(v, []block.Block{lb.Block, {}}) {
		t.Error("blocks", v)
	}
	if v := r.Locateds(); !reflect.DeepEqual(v, []block.LocatedBlock{lb, {}}) {
		t.Error("located blocks", v)
	}
	if err := r.Done(); err != nil {
		t.Fatal(err)
	}
}

// TestLongString: a string of 0xFFFF bytes or more takes the escaped
// form, shorter ones keep the two-byte prefix the data-plane vectors pin,
// and the escaped form is refused for a length that did not need it (one
// value, one encoding).
func TestLongString(t *testing.T) {
	for _, n := range []int{0, 1, 0xFFFE, 0xFFFF, 0x10000, 1 << 20} {
		s := strings.Repeat("x", n)
		enc := AppendString(nil, s)
		if want := 2 + n; n < 0xFFFF && len(enc) != want {
			t.Errorf("len %d: encoded in %d bytes, want %d", n, len(enc), want)
		}
		r := NewReader(enc)
		if got := r.Str(); got != s || r.Done() != nil {
			t.Errorf("len %d: round trip lost the string (err %v)", n, r.Done())
		}
	}
	r := NewReader([]byte{0xFF, 0xFF, 0, 0, 0, 3, 'a', 'b', 'c'})
	if s := r.Str(); s != "" || r.Done() == nil {
		t.Errorf("short string in the long form: got %q, err %v", s, r.Done())
	}
}

// TestMalformed: every failure is an error, sticks, and allocates
// nothing after it.
func TestMalformed(t *testing.T) {
	for name, tc := range map[string]struct {
		in   []byte
		read func(r *Reader)
		want string
	}{
		"short u64":            {[]byte{1, 2, 3}, func(r *Reader) { r.U64() }, "unexpected EOF"},
		"string past the end":  {[]byte{0, 9, 'a'}, func(r *Reader) { r.Str() }, "unexpected EOF"},
		"bool byte":            {[]byte{2}, func(r *Reader) { r.Bool() }, "bool byte"},
		"NaN":                  {AppendU64(nil, math.Float64bits(math.NaN())), func(r *Reader) { r.Float64() }, "non-finite"},
		"infinity":             {AppendU64(nil, math.Float64bits(math.Inf(-1))), func(r *Reader) { r.Float64() }, "non-finite"},
		"name count":           {[]byte{0xFF, 0xFF, 0xFF, 0xFF, 0, 0}, func(r *Reader) { r.Names() }, "exceeds"},
		"block count":          {append(AppendCount(nil, 2), make([]byte, BlockSize)...), func(r *Reader) { r.Blocks() }, "exceeds"},
		"datanode count":       {AppendCount(nil, 1<<30), func(r *Reader) { r.Datanodes() }, "exceeds"},
		"located count":        {AppendCount(nil, 1<<30), func(r *Reader) { r.Locateds() }, "exceeds"},
		"trailing bytes":       {[]byte{0, 0}, func(r *Reader) { r.U8() }, "trailing"},
		"long form, no length": {[]byte{0xFF, 0xFF}, func(r *Reader) { r.Str() }, "unexpected EOF"},
	} {
		r := NewReader(tc.in)
		tc.read(&r)
		err := r.Done()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want one mentioning %q", name, err, tc.want)
			continue
		}
		if a := testing.AllocsPerRun(10, func() {
			if r.Str() != "" || r.Name() != "" || r.Names() != nil || r.Blocks() != nil || r.Locateds() != nil || r.U64() != 0 || r.Len() != 0 {
				t.Errorf("%s: a failed reader returned a value", name)
			}
		}); a != 0 {
			t.Errorf("%s: %v allocs reading on after the failure", name, a)
		}
		if r.Done() != err {
			t.Errorf("%s: first error replaced by %v", name, r.Done())
		}
	}
	r := NewReader([]byte{1})
	r.U16()
	if !errors.Is(r.Err(), io.ErrUnexpectedEOF) {
		t.Errorf("truncation is not io.ErrUnexpectedEOF: %v", r.Err())
	}
}

// TestViewsAliasCopiesDoNot pins the ownership rule: Str copies, StrView
// and Rest alias the input, and Name returns the string an earlier
// decode of the same bytes returned, never a view.
func TestViewsAliasCopiesDoNot(t *testing.T) {
	in := AppendString(AppendString(AppendString(AppendString(nil, "copy"), "dn-shared"), "dn-shared"), "view")
	in = append(in, "rest"...)
	r := NewReader(in)
	s, n1, n2, v, rest := r.Str(), r.Name(), r.Name(), r.StrView(), r.Rest()
	if err := r.Done(); err != nil {
		t.Fatal(err)
	}
	for i := range in {
		in[i] = 0xA5
	}
	if s != "copy" {
		t.Errorf("Str aliases the input: %q", s)
	}
	if n1 != "dn-shared" || n2 != "dn-shared" {
		t.Errorf("Name aliases the input: %q, %q", n1, n2)
	}
	if unsafe.StringData(n1) != unsafe.StringData(n2) {
		t.Error("two decodes of one name returned two strings")
	}
	if bytes.Equal(v, []byte("view")) || bytes.Equal(rest, []byte("rest")) {
		t.Error("StrView or Rest copied; they are documented as views")
	}
}

// TestAllocDecodeTargets: an R3 grant's target list whose names were
// seen before decodes into its slice and nothing else.
func TestAllocDecodeTargets(t *testing.T) {
	enc := AppendDatanodes(nil, []block.DatanodeInfo{
		{Name: "dn1", Addr: "10.0.0.1:50010", Rack: "/rack-a"},
		{Name: "dn4", Addr: "10.0.0.4:50010", Rack: "/rack-b"},
		{Name: "dn5", Addr: "10.0.0.5:50010", Rack: "/rack-b"},
	})
	got := testing.AllocsPerRun(100, func() {
		r := NewReader(enc)
		if ds := r.Datanodes(); len(ds) != 3 || ds[2].Rack != "/rack-b" || r.Done() != nil {
			t.Fatalf("decoded %+v, %v", ds, r.Done())
		}
	})
	if got > 1 {
		t.Errorf("three known targets: %.1f allocs per decode, budget 1 (the slice)", got)
	}
}

// withNameTable has Reader.Name decode through an empty table for the
// rest of the test.
func withNameTable(t *testing.T) *nameTable {
	t.Helper()
	old := names
	names = newNameTable()
	t.Cleanup(func() { names = old })
	return names
}

func tableLen(tab *nameTable) int {
	tab.mu.Lock()
	defer tab.mu.Unlock()
	return len(tab.m)
}

// TestNameTableIsBounded: filling the table costs each new name its
// string and nothing more, so no decode pays for the map's growth (the
// bound nnapi.FuzzParse holds a decode to does not depend on how full
// the table is); past its cap the table keeps nothing more and every
// name still decodes right; a name over the length cap is returned but
// never kept.
func TestNameTableIsBounded(t *testing.T) {
	tab := withNameTable(t)
	want := make([]string, maxNames+100)
	encs := make([][]byte, len(want))
	for i := range want {
		want[i] = fmt.Sprintf("10.0.%d.%d:50010", i/256, i%256)
		encs[i] = AppendString(nil, want[i])
	}
	got := make([]string, len(want))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i, enc := range encs {
		r := NewReader(enc)
		got[i] = r.Name()
	}
	runtime.ReadMemStats(&after)
	if n := after.Mallocs - before.Mallocs; n > uint64(len(want)) {
		t.Errorf("%d new names cost %d allocations; want one string each", len(want), n)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("a name decoded wrong while the table filled")
	}
	for round := 0; round < 2; round++ {
		r := NewReader(AppendStrings(nil, want))
		if got := r.Names(); !reflect.DeepEqual(got, want) || r.Done() != nil {
			t.Fatalf("round %d: decoded wrong, %v", round, r.Done())
		}
		if n := tableLen(tab); n != maxNames {
			t.Fatalf("round %d: the table holds %d names, cap %d", round, n, maxNames)
		}
	}
	long := strings.Repeat("x", maxNameLen+1)
	fresh := withNameTable(t)
	r := NewReader(AppendString(AppendString(nil, long), long))
	if a, b := r.Name(), r.Name(); a != long || b != long || r.Done() != nil {
		t.Fatalf("over-long name decoded as %q, %q, %v", a, b, r.Done())
	}
	if n := tableLen(fresh); n != 0 {
		t.Errorf("a name over %d bytes was kept (%d entries)", maxNameLen, n)
	}
}

// TestNameTableConcurrent: eight decoders of overlapping names, as
// every connection's read loop is; run under -race.
func TestNameTableConcurrent(t *testing.T) {
	tab := withNameTable(t)
	const workers, span = 8, 24
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var want []string
			for i := w * 4; i < w*4+span; i++ {
				want = append(want, fmt.Sprintf("dn%d", i))
			}
			enc := AppendStrings(nil, want)
			for round := 0; round < 200; round++ {
				r := NewReader(enc)
				if got := r.Names(); !reflect.DeepEqual(got, want) || r.Done() != nil {
					t.Errorf("worker %d: decoded %v, %v", w, got, r.Done())
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if n, distinct := tableLen(tab), (workers-1)*4+span; n != distinct {
		t.Errorf("the table holds %d names, want the %d distinct ones", n, distinct)
	}
}
