package nnapi

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/block"
	"repro/internal/proto"
)

// message is what every nnapi type is, through its pointer.
type message interface {
	AppendTo(dst []byte) []byte
	ParseFrom(b []byte) error
}

var (
	sampleBlock   = block.Block{ID: 8, Gen: 3, NumBytes: 1 << 20}
	sampleTargets = []block.DatanodeInfo{{Name: "dn1", Addr: "dn1:50010", Rack: "/rack-a"}, {Name: "dn6", Addr: "dn6:50010", Rack: "/rack-b"}, {Name: "dn7", Addr: "dn7:50010", Rack: "/rack-b"}}
	sampleLocated = block.LocatedBlock{Block: sampleBlock, Targets: sampleTargets}
)

// messages is the one table every codec test and FuzzParse drive: a
// populated sample of each type. A new message type is covered by adding
// a row.
var messages = []message{
	&CreateReq{Path: "/a/b", Client: "c1", Replication: 3, BlockSize: 64 << 20, Overwrite: true},
	&CreateResp{},
	&AddBlockReq{Path: "/a/b", Client: "c1", Mode: proto.ModeSmarth, Exclude: []string{"dn2", "dn3"}, Previous: sampleBlock},
	&AddBlockResp{Located: sampleLocated},
	&CompleteReq{Path: "/a/b", Client: "c1"},
	&CompleteResp{Done: true},
	&RecoverBlockReq{Path: "/a/b", Client: "c1", Block: sampleBlock, Alive: []string{"dn1"}, Exclude: []string{"dn2", "dn3"}, Mode: proto.ModeSmarth},
	&RecoverBlockResp{Located: sampleLocated},
	&ClientHeartbeatReq{Client: "c1", Speeds: map[string]float64{"dn1": 40, "dn2": 55.5, "dn3": 1e-9, "dn4": 0.1 + 0.2}},
	&ClientHeartbeatResp{},
	&GetBlockLocationsReq{Path: "/a/b", Client: "c1"},
	&GetBlockLocationsResp{Blocks: []block.LocatedBlock{sampleLocated, {Block: block.Block{ID: 9}}}, Len: 3 << 20},
	&DeleteReq{Path: "/a/b"},
	&DeleteResp{Deleted: true},
	&RenameReq{Src: "/a/b", Dst: "/a/c"},
	&RenameResp{},
	&ListReq{Prefix: "/a"},
	&ListResp{Files: []FileStatus{{Path: "/a/b", Len: 1 << 30, Replication: 3, Complete: true, NumBlocks: 16, MinLiveReplicas: 2}, {Path: "/a/c"}}},
	&GetFileInfoReq{Path: "/a/b"},
	&GetFileInfoResp{Exists: true, Complete: true, Len: 1 << 30, Replication: 3, BlockSize: 64 << 20, NumBlocks: 16},
	&ClusterInfoReq{},
	&ClusterInfoResp{ActiveDatanodes: 9, Racks: 2, SafeMode: true},
	&RegisterReq{Name: "dn1", Addr: "dn1:50010", Rack: "/rack-a", Blocks: []block.Block{sampleBlock, {ID: 9, Gen: 1}}},
	&RegisterResp{},
	&HeartbeatReq{Name: "dn1"},
	&HeartbeatResp{Invalidate: []block.Block{sampleBlock}, Replicate: []ReplicateCmd{{Block: sampleBlock, Targets: sampleTargets[:1]}, {Block: block.Block{ID: 9}}}},
	&BlockReceivedReq{Name: "dn1", Block: sampleBlock},
	&BlockReceivedResp{},
	&BlockReceivedBatchReq{Name: "dn1", Blocks: []block.Block{sampleBlock, {ID: 9, Gen: 1}}},
	&BlockReceivedBatchResp{Rejected: 2},
}

func name(m message) string { return reflect.TypeOf(m).Elem().Name() }

// zero returns a fresh message of m's type.
func zero(m message) message { return reflect.New(reflect.TypeOf(m).Elem()).Interface().(message) }

// TestCodecCoversEveryMessage fails when nnapi.go declares a request or
// response type that has no row in the table (and so no codec test and
// no fuzz seed).
func TestCodecCoversEveryMessage(t *testing.T) {
	rows := map[string]bool{}
	for _, m := range messages {
		if rows[name(m)] {
			t.Errorf("%s has two rows", name(m))
		}
		rows[name(m)] = true
	}
	f, err := parser.ParseFile(token.NewFileSet(), "nnapi.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	ast.Inspect(f, func(n ast.Node) bool {
		if ts, ok := n.(*ast.TypeSpec); ok {
			declared := ts.Name.Name
			if (strings.HasSuffix(declared, "Req") || strings.HasSuffix(declared, "Resp")) && !rows[declared] {
				t.Errorf("%s is declared in nnapi.go but has no row in the codec table", declared)
			}
		}
		return true
	})
}

func TestCodecRoundTrip(t *testing.T) {
	for _, m := range messages {
		enc := m.AppendTo(nil)
		got := zero(m)
		if err := got.ParseFrom(enc); err != nil {
			t.Errorf("%s: %v", name(m), err)
			continue
		}
		if !reflect.DeepEqual(got, m) {
			t.Errorf("%s: round trip gave %+v, want %+v", name(m), got, m)
		}
		// A body is consumed exactly: one byte more or one byte fewer is an
		// error, never a value.
		if err := zero(m).ParseFrom(append(bytes.Clone(enc), 0)); err == nil {
			t.Errorf("%s: accepted a trailing byte", name(m))
		}
		if len(enc) > 0 {
			if err := zero(m).ParseFrom(enc[:len(enc)-1]); err == nil {
				t.Errorf("%s: accepted a truncated body", name(m))
			}
		}
	}
}

// TestSpeedsCrossExactly pins the float encoding: IEEE-754 bits, so a
// speed table reaches Algorithm 1 bit for bit, and the non-finite values
// JSON could never carry are still refused.
func TestSpeedsCrossExactly(t *testing.T) {
	in := ClientHeartbeatReq{Client: "c", Speeds: map[string]float64{"a": 0.1 + 0.2, "b": 5e-324, "c": 1.7976931348623157e308, "d": 0}}
	var out ClientHeartbeatReq
	if err := out.ParseFrom(in.AppendTo(nil)); err != nil {
		t.Fatal(err)
	}
	for k, v := range in.Speeds {
		if got, ok := out.Speeds[k]; !ok || got != v {
			t.Errorf("speed %s = %v, want %v", k, got, v)
		}
	}
	nan := ClientHeartbeatReq{Client: "c", Speeds: map[string]float64{"a": math.Inf(1), "b": math.NaN()}}
	if err := out.ParseFrom(nan.AppendTo(nil)); err == nil || !strings.Contains(err.Error(), "non-finite") {
		t.Errorf("non-finite speeds: err = %v", err)
	}
}

// kept counts the allocations a decoded value has to own: one per
// non-empty string and slice, and for a map its entries plus the few
// objects the runtime builds a map from.
func kept(v reflect.Value) int {
	n := 0
	switch v.Kind() {
	case reflect.Pointer:
		return kept(v.Elem())
	case reflect.String:
		if v.Len() > 0 {
			n = 1
		}
	case reflect.Slice:
		if v.Len() > 0 {
			n = 1
		}
		for i := 0; i < v.Len(); i++ {
			n += kept(v.Index(i))
		}
	case reflect.Map:
		n = 4
		for _, k := range v.MapKeys() {
			n += kept(k) + kept(v.MapIndex(k))
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			n += kept(v.Field(i))
		}
	}
	return n
}

// TestAllocCodec is the codec's allocation budget: encoding into a
// buffer with room allocates nothing for any type, and decoding
// allocates only what the value keeps.
func TestAllocCodec(t *testing.T) {
	buf := make([]byte, 0, 4096)
	for _, m := range messages {
		if a := testing.AllocsPerRun(100, func() { buf = m.AppendTo(buf[:0]) }); a != 0 {
			t.Errorf("%s.AppendTo: %v allocs, want 0", name(m), a)
		}
		enc, into := m.AppendTo(nil), zero(m)
		a := testing.AllocsPerRun(100, func() {
			if err := into.ParseFrom(enc); err != nil {
				t.Fatal(err)
			}
		})
		if want := kept(reflect.ValueOf(m)); int(a) > want {
			t.Errorf("%s.ParseFrom: %v allocs, but the value keeps only %d", name(m), a, want)
		}
	}
}

// TestAllocHeartbeatReuse: a heartbeat parsed over an earlier one —
// what the rpc server's recycled requests do — refills the map the
// request already holds. Decoding a nine-entry table then allocates the
// client's name and the nine datanode names, and no map.
func TestAllocHeartbeatReuse(t *testing.T) {
	speeds := make(map[string]float64, 9)
	for i := 0; i < 9; i++ {
		speeds[fmt.Sprintf("dn%d", i)] = float64(40 + 15*i)
	}
	enc := ClientHeartbeatReq{Client: "meta-w0", Speeds: speeds}.AppendTo(nil)
	var into ClientHeartbeatReq
	if err := into.ParseFrom(enc); err != nil {
		t.Fatal(err)
	}
	held := reflect.ValueOf(into.Speeds).UnsafePointer()
	a := testing.AllocsPerRun(100, func() {
		if err := into.ParseFrom(enc); err != nil {
			t.Fatal(err)
		}
	})
	if reflect.ValueOf(into.Speeds).UnsafePointer() != held {
		t.Error("ParseFrom replaced the map the request held")
	}
	if !reflect.DeepEqual(into.Speeds, speeds) {
		t.Errorf("refilled table = %v, want %v", into.Speeds, speeds)
	}
	if want := 1 + len(speeds); a > float64(want) {
		t.Errorf("ParseFrom into a held map: %v allocs, want at most %d (the strings the value keeps)", a, want)
	}
	// A table with fewer entries leaves none of the earlier ones behind.
	if err := into.ParseFrom(ClientHeartbeatReq{Client: "meta-w0", Speeds: map[string]float64{"dn0": 1}}.AppendTo(nil)); err != nil {
		t.Fatal(err)
	}
	if len(into.Speeds) != 1 || into.Speeds["dn0"] != 1 {
		t.Errorf("refilled with one entry: %v", into.Speeds)
	}
}

var benchReq = AddBlockReq{Path: "/meta/w0/f1", Client: "meta-w0", Mode: proto.ModeSmarth, Previous: block.Block{ID: 7, Gen: 1, NumBytes: 1 << 20}}

// BenchmarkAddBlockCodec is what one addBlock costs in encoding and
// decoding, both ways: the in-repo counterpart of the benchmark's
// nnapi.addblock_codec probe.
func BenchmarkAddBlockCodec(b *testing.B) {
	resp := AddBlockResp{Located: sampleLocated}
	buf := make([]byte, 0, 512)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var r AddBlockReq
		var p AddBlockResp
		buf = benchReq.AppendTo(buf[:0])
		if err := r.ParseFrom(buf); err != nil {
			b.Fatal(err)
		}
		buf = resp.AppendTo(buf[:0])
		if err := p.ParseFrom(buf); err != nil {
			b.Fatal(err)
		}
		if r.Path != benchReq.Path || len(p.Located.Targets) != 3 {
			b.Fatalf("addBlock codec: got %+v, %+v", r, p)
		}
	}
}

// FuzzParse feeds arbitrary bytes to every message decoder — the
// namenode runs the request ones on bytes from any socket, clients and
// datanodes the response ones on bytes from the namenode. A decoder must
// return an error or a value that re-encodes and re-parses to an equal
// value, never panic, and never allocate by a length it has not checked
// against the input: what one ParseFrom allocates stays within a small
// multiple of the bytes it was given.
func FuzzParse(f *testing.F) {
	for i, m := range messages {
		enc := m.AppendTo(nil)
		f.Add(uint8(i), enc)
		f.Add(uint8(i), enc[:len(enc)/2])
		f.Add(uint8(i), enc[:max(len(enc)-1, 0)]) // one byte short of the last field
		f.Add(uint8(i), append(bytes.Clone(enc), 0))
		f.Add(uint8(i), bytes.Repeat([]byte{0xff}, 16)) // every count and length at its largest
		f.Add(uint8(i), []byte{})
		// A whole, valid body of the next type: the wire carries no type
		// tag, so a mismatched op code hands a decoder exactly this.
		f.Add(uint8(i), messages[(i+1)%len(messages)].AppendTo(nil))
		if len(enc) > 0 {
			flipped := bytes.Clone(enc) // the first length or count at its largest, the rest intact
			flipped[0] = 0xff
			f.Add(uint8(i), flipped)
		}
	}
	f.Fuzz(func(t *testing.T, kind uint8, raw []byte) {
		m := zero(messages[int(kind)%len(messages)])
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := m.ParseFrom(raw)
		runtime.ReadMemStats(&after)
		// 64 bytes of value per input byte is above the worst honest ratio
		// (a 2-byte empty string costs a 16-byte header; a 10-byte map
		// entry some 40 bytes of buckets); the slack absorbs the runtime's
		// own allocations while the test runs.
		if got, bound := after.TotalAlloc-before.TotalAlloc, uint64(64*len(raw)+1<<16); got > bound {
			t.Fatalf("%s.ParseFrom allocated %d bytes for %d bytes of input (bound %d)", name(m), got, len(raw), bound)
		}
		if err != nil {
			return
		}
		enc := m.AppendTo(nil)
		again := zero(m)
		if err := again.ParseFrom(enc); err != nil {
			t.Fatalf("%s: decoded %+v from\n%x\nbut its encoding\n%x\ndoes not decode: %v", name(m), m, raw, enc, err)
		}
		if !reflect.DeepEqual(m, again) {
			t.Fatalf("%s: decoded %+v from\n%x\nwhich encodes and decodes to %+v", name(m), m, raw, again)
		}
	})
}
