package proto

import (
	"bytes"
	"io"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/block"
	"repro/internal/checksum"
)

// duplex is an in-memory ReadWriter for codec tests.
type duplex struct{ bytes.Buffer }

func TestWriteBlockHeaderRoundTrip(t *testing.T) {
	var buf duplex
	c := NewConn(&buf)
	in := &WriteBlockHeader{
		Block: block.Block{ID: 42, Gen: 7, NumBytes: 1234},
		Targets: []block.DatanodeInfo{
			{Name: "dn2", Addr: "mem://dn2", Rack: "/rack-a"},
			{Name: "dn3", Addr: "mem://dn3", Rack: "/rack-b"},
		},
		Client: "client-1",
		Mode:   ModeSmarth,
	}
	if err := c.WriteHeader(OpWriteBlock, in); err != nil {
		t.Fatal(err)
	}
	op, h, err := c.ReadHeader()
	if err != nil {
		t.Fatal(err)
	}
	if op != OpWriteBlock {
		t.Fatalf("op = %v, want OpWriteBlock", op)
	}
	out, ok := h.(*WriteBlockHeader)
	if !ok {
		t.Fatalf("decoded %T, want *WriteBlockHeader", h)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip:\n in=%+v\nout=%+v", in, out)
	}
}

func TestWriteBlockHeaderEmptyTargets(t *testing.T) {
	var buf duplex
	c := NewConn(&buf)
	in := &WriteBlockHeader{Block: block.Block{ID: 1}, Client: "c", Mode: ModeHDFS}
	if err := c.WriteHeader(OpWriteBlock, in); err != nil {
		t.Fatal(err)
	}
	_, h, err := c.ReadHeader()
	if err != nil {
		t.Fatal(err)
	}
	out := h.(*WriteBlockHeader)
	if len(out.Targets) != 0 {
		t.Fatalf("targets = %v, want empty", out.Targets)
	}
}

func TestReadBlockHeaderRoundTrip(t *testing.T) {
	var buf duplex
	c := NewConn(&buf)
	in := &ReadBlockHeader{Block: block.Block{ID: 9, Gen: 2, NumBytes: 100}, Offset: 10, Length: 50}
	if err := c.WriteHeader(OpReadBlock, in); err != nil {
		t.Fatal(err)
	}
	op, h, err := c.ReadHeader()
	if err != nil {
		t.Fatal(err)
	}
	if op != OpReadBlock {
		t.Fatalf("op = %v", op)
	}
	if out := h.(*ReadBlockHeader); !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip: in=%+v out=%+v", in, out)
	}
}

func TestHeaderTypeMismatch(t *testing.T) {
	var buf duplex
	c := NewConn(&buf)
	if err := c.WriteHeader(OpWriteBlock, &ReadBlockHeader{}); err == nil {
		t.Fatal("accepted wrong header type")
	}
	if err := c.WriteHeader(Op(0x99), nil); err == nil {
		t.Fatal("accepted unknown op")
	}
}

func TestPacketRoundTrip(t *testing.T) {
	var buf duplex
	c := NewConn(&buf)
	data := bytes.Repeat([]byte{0xA5}, 1500)
	in := &Packet{
		Seqno:  11,
		Offset: 64 << 10,
		Last:   true,
		Sums:   checksum.Sum(data, DefaultChunkSize),
		Data:   data,
	}
	if err := c.WritePacket(in); err != nil {
		t.Fatal(err)
	}
	out, err := c.ReadPacket()
	if err != nil {
		t.Fatal(err)
	}
	if out.Seqno != in.Seqno || out.Offset != in.Offset || out.Last != in.Last {
		t.Fatalf("meta mismatch: %+v vs %+v", out, in)
	}
	if !bytes.Equal(out.Data, in.Data) {
		t.Fatal("data mismatch")
	}
	if err := checksum.VerifyEncoded(out.Data, out.RawSums, DefaultChunkSize); err != nil {
		t.Fatal(err)
	}
	sums, err := checksum.Decode(out.RawSums)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sums, in.Sums) {
		t.Fatalf("sums mismatch: %v vs %v", sums, in.Sums)
	}
	out.Release()
}

// TestReadPacketInto: the placing decoder shows the lender each packet's
// offset and length, lands the payload in what it lends — or in the
// packet's own frame when it declines or comes up short — and Release
// leaves lent memory alone.
func TestReadPacketInto(t *testing.T) {
	data := make([]byte, 3*DefaultChunkSize+17)
	for i := range data {
		data[i] = byte(i * 7)
	}
	in := &Packet{Seqno: 5, Offset: 1 << 20, Sums: checksum.Sum(data, DefaultChunkSize), Data: data}
	for name, l := range map[string]*fuzzLender{
		"accepts":      {mem: make([]byte, len(data)+100)},
		"declines":     {},
		"short":        {mem: make([]byte, len(data)), short: 1},
		"too-small":    {mem: make([]byte, len(data)-1)},
		"empty-packet": {mem: make([]byte, 8)},
	} {
		t.Run(name, func(t *testing.T) {
			var buf duplex
			c := NewConn(&buf)
			want := *in
			if name == "empty-packet" {
				want = Packet{Seqno: 6, Offset: 2 << 20, Last: true}
			}
			if err := c.WritePacket(&want); err != nil {
				t.Fatal(err)
			}
			out, err := c.ReadPacketInto(l)
			if err != nil {
				t.Fatal(err)
			}
			if out.Seqno != want.Seqno || out.Offset != want.Offset || out.Last != want.Last || !bytes.Equal(out.Data, want.Data) {
				t.Fatalf("decoded %+v, want %+v", out, want)
			}
			if err := checksum.VerifyEncoded(out.Data, out.RawSums, DefaultChunkSize); err != nil {
				t.Fatal(err)
			}
			if name == "empty-packet" {
				if l.calls != 0 {
					t.Fatal("the lender was asked about a packet with no payload")
				}
				out.Release()
				return
			}
			if l.calls != 1 || l.offset != in.Offset || l.n != len(data) {
				t.Fatalf("lender saw %d calls, last (%d, %d); want one call (%d, %d)", l.calls, l.offset, l.n, in.Offset, len(data))
			}
			if inLent := l.mem != nil && &out.Data[0] == &l.mem[0]; inLent != (name == "accepts") {
				t.Fatalf("payload in lent memory: %v", inLent)
			}
			out.Release()
			scribblePool(t, len(data)+600)()
			if name == "accepts" && !bytes.Equal(l.mem[:len(data)], data) {
				t.Fatal("Release recycled memory the packet did not own")
			}
		})
	}

	// A stream that ends inside a lent payload is an error, and the
	// caller owns nothing.
	var whole duplex
	if err := NewConn(&whole).WritePacket(in); err != nil {
		t.Fatal(err)
	}
	var torn duplex
	torn.Write(whole.Bytes()[:whole.Len()-5])
	l := &fuzzLender{mem: make([]byte, len(data))}
	if _, err := NewConn(&torn).ReadPacketInto(l); err != io.ErrUnexpectedEOF { // the read must fail
		t.Fatalf("torn lent payload: err = %v, want io.ErrUnexpectedEOF", err)
	}
}

func TestEmptyLastPacket(t *testing.T) {
	var buf duplex
	c := NewConn(&buf)
	in := &Packet{Seqno: 3, Offset: 128, Last: true}
	if err := c.WritePacket(in); err != nil {
		t.Fatal(err)
	}
	out, err := c.ReadPacket()
	if err != nil {
		t.Fatal(err)
	}
	if !out.Last || len(out.Data) != 0 || len(out.RawSums) != 0 {
		t.Fatalf("empty last packet decoded as %+v", out)
	}
	out.Release()
}

func TestAckRoundTrip(t *testing.T) {
	var buf duplex
	c := NewConn(&buf)
	in := &Ack{Kind: AckData, Seqno: 77, Statuses: []Status{StatusSuccess, StatusErrorChecksum, StatusError}}
	if err := c.WriteAck(in); err != nil {
		t.Fatal(err)
	}
	out, err := c.ReadAck()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip: in=%+v out=%+v", in, out)
	}
	if out.OK() {
		t.Fatal("OK() = true with error statuses")
	}
}

// TestBlame is the one blame rule both substrates share: the first
// non-success status names the hop, and nothing named blames hop 0.
func TestBlame(t *testing.T) {
	S, E, C := StatusSuccess, StatusError, StatusErrorChecksum
	for _, tc := range []struct {
		statuses []Status
		want     int
	}{
		{[]Status{S, S, S}, 0},
		{[]Status{S, E}, 1},
		{[]Status{S, S, C}, 2},
		{[]Status{E, E, E}, 0},
		{nil, 0},
	} {
		if got := Blame(tc.statuses); got != tc.want {
			t.Errorf("Blame(%v) = %d, want %d", tc.statuses, got, tc.want)
		}
	}
}

func TestFNFAAck(t *testing.T) {
	var buf duplex
	c := NewConn(&buf)
	in := &Ack{Kind: AckFNFA, Seqno: -1, Statuses: []Status{StatusSuccess}}
	if err := c.WriteAck(in); err != nil {
		t.Fatal(err)
	}
	out, err := c.ReadAck()
	if err != nil {
		t.Fatal(err)
	}
	if out.Kind != AckFNFA || !out.OK() {
		t.Fatalf("FNFA decoded as %+v", out)
	}
}

func TestTruncatedStream(t *testing.T) {
	var buf duplex
	c := NewConn(&buf)
	if err := c.WritePacket(&Packet{Seqno: 1, Data: []byte("abc"), Sums: []uint32{1}}); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	for cut := 0; cut < len(raw); cut++ {
		var short duplex
		short.Write(raw[:cut])
		if _, err := NewConn(&short).ReadPacket(); err == nil { // every prefix must fail, no packet allocated
			t.Fatalf("ReadPacket succeeded on %d/%d-byte prefix", cut, len(raw))
		}
	}
}

func TestReadHeaderEOF(t *testing.T) {
	var empty duplex
	if _, _, err := NewConn(&empty).ReadHeader(); err != io.EOF {
		t.Fatalf("err = %v, want io.EOF", err)
	}
}

func TestVersionCheck(t *testing.T) {
	var buf duplex
	// Hand-craft a frame with a bad version byte.
	buf.Write([]byte{0, 0, 0, 2, 99, byte(OpReadBlock)})
	if _, _, err := NewConn(&buf).ReadHeader(); err == nil {
		t.Fatal("accepted wrong protocol version")
	}
}

func TestStringers(t *testing.T) {
	if OpWriteBlock.String() != "WRITE_BLOCK" || OpReadBlock.String() != "READ_BLOCK" || Op(0).String() != "UNKNOWN_OP" {
		t.Fatal("Op.String values wrong")
	}
	if ModeHDFS.String() != "HDFS" || ModeSmarth.String() != "SMARTH" {
		t.Fatal("WriteMode.String values wrong")
	}
	if StatusSuccess.String() != "SUCCESS" || StatusError.String() != "ERROR" ||
		StatusErrorChecksum.String() != "ERROR_CHECKSUM" || Status(99).String() != "UNKNOWN_STATUS" {
		t.Fatal("Status.String values wrong")
	}
	if AckData.String() != "DATA" || AckFNFA.String() != "FNFA" || AckHeader.String() != "HEADER" || AckKind(9).String() != "UNKNOWN_ACK" {
		t.Fatal("AckKind.String values wrong")
	}
}

// Property: packets of arbitrary content round-trip bit-exactly.
func TestQuickPacketRoundTrip(t *testing.T) {
	f := func(seqno, offset int64, last bool, data []byte) bool {
		var buf duplex
		c := NewConn(&buf)
		in := &Packet{
			Seqno: seqno, Offset: offset, Last: last,
			Sums: checksum.Sum(data, DefaultChunkSize),
			Data: data,
		}
		if c.WritePacket(in) != nil {
			return false
		}
		out, err := c.ReadPacket()
		if err != nil {
			return false
		}
		defer out.Release()
		return out.Seqno == seqno && out.Offset == offset && out.Last == last &&
			bytes.Equal(out.Data, data) &&
			checksum.VerifyEncoded(out.Data, out.RawSums, DefaultChunkSize) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: write-block headers with arbitrary strings round-trip.
func TestQuickHeaderRoundTrip(t *testing.T) {
	f := func(id int64, gen uint64, nb int64, client, n1, a1, r1 string, mode bool) bool {
		if len(client) > 60000 || len(n1) > 60000 || len(a1) > 60000 || len(r1) > 60000 {
			return true // out of uint16 length-prefix contract
		}
		m := ModeHDFS
		if mode {
			m = ModeSmarth
		}
		in := &WriteBlockHeader{
			Block:   block.Block{ID: block.ID(id), Gen: block.GenStamp(gen), NumBytes: nb},
			Targets: []block.DatanodeInfo{{Name: n1, Addr: a1, Rack: r1}},
			Client:  client,
			Mode:    m,
		}
		var buf duplex
		c := NewConn(&buf)
		if c.WriteHeader(OpWriteBlock, in) != nil {
			return false
		}
		_, h, err := c.ReadHeader()
		if err != nil {
			return false
		}
		return reflect.DeepEqual(in, h.(*WriteBlockHeader))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkPacketEncodeDecode(b *testing.B) {
	data := make([]byte, DefaultPacketSize)
	sums := checksum.Sum(data, DefaultChunkSize)
	b.SetBytes(DefaultPacketSize)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var buf duplex
		c := NewConn(&buf)
		if err := c.WritePacket(&Packet{Seqno: int64(i), Sums: sums, Data: data}); err != nil {
			b.Fatal(err)
		}
		out, err := c.ReadPacket()
		if err != nil {
			b.Fatal(err)
		}
		out.Release()
	}
}

// BenchmarkPacketRoundTrip measures the steady-state cost of one packet
// through the codec over a reused connection — the shape of the datanode
// receive/forward loop. Acceptance bound: ≤2 allocs/op.
func BenchmarkPacketRoundTrip(b *testing.B) {
	data := make([]byte, DefaultPacketSize)
	for i := range data {
		data[i] = byte(i)
	}
	var buf duplex
	c := NewConn(&buf)
	var sums []uint32
	b.SetBytes(DefaultPacketSize)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sums = checksum.AppendSums(sums[:0], data, DefaultChunkSize)
		if err := c.WritePacket(&Packet{Seqno: int64(i), Sums: sums, Data: data}); err != nil {
			b.Fatal(err)
		}
		out, err := c.ReadPacket()
		if err != nil {
			b.Fatal(err)
		}
		if err := checksum.VerifyEncoded(out.Data, out.RawSums, DefaultChunkSize); err != nil {
			b.Fatal(err)
		}
		out.Release()
	}
}

// Property: arbitrary byte streams never panic the decoders; they either
// parse or error.
func TestQuickDecodeRobustness(t *testing.T) {
	f := func(raw []byte) bool {
		var buf duplex
		buf.Write(raw)
		c := NewConn(&buf)
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("ReadHeader panicked on %x: %v", raw, r)
				}
			}()
			c.ReadHeader()
		}()
		var buf2 duplex
		buf2.Write(raw)
		c2 := NewConn(&buf2)
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("ReadPacket panicked on %x: %v", raw, r)
				}
			}()
			if p, err := c2.ReadPacket(); err == nil {
				p.Release()
			}
		}()
		var buf3 duplex
		buf3.Write(raw)
		c3 := NewConn(&buf3)
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("ReadAck panicked on %x: %v", raw, r)
				}
			}()
			c3.ReadAck()
		}()
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Giant frame lengths must be rejected, not allocated.
func TestHugeFrameRejected(t *testing.T) {
	var buf duplex
	buf.Write([]byte{0xff, 0xff, 0xff, 0xff})
	if _, _, err := NewConn(&buf).ReadHeader(); err == nil {
		t.Fatal("4GB frame accepted")
	}
}
