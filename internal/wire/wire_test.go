package wire

import (
	"bytes"
	"errors"
	"io"
	"math"
	"reflect"
	"strings"
	"testing"

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
	if v := r.Strs(); !reflect.DeepEqual(v, []string{"a", "", "c"}) {
		t.Error("strings", v)
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
		"string count":         {[]byte{0xFF, 0xFF, 0xFF, 0xFF, 0, 0}, func(r *Reader) { r.Strs() }, "exceeds"},
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
			if r.Str() != "" || r.Strs() != nil || r.Blocks() != nil || r.Locateds() != nil || r.U64() != 0 || r.Len() != 0 {
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
// and Rest alias the input.
func TestViewsAliasCopiesDoNot(t *testing.T) {
	in := append(AppendString(AppendString(nil, "copy"), "view"), "rest"...)
	r := NewReader(in)
	s, v, rest := r.Str(), r.StrView(), r.Rest()
	if err := r.Done(); err != nil {
		t.Fatal(err)
	}
	for i := range in {
		in[i] = 0xA5
	}
	if s != "copy" {
		t.Errorf("Str aliases the input: %q", s)
	}
	if bytes.Equal(v, []byte("view")) || bytes.Equal(rest, []byte("rest")) {
		t.Error("StrView or Rest copied; they are documented as views")
	}
}
