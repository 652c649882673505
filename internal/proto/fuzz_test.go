package proto

import (
	"bytes"
	"testing"

	"repro/internal/block"
	"repro/internal/bufpool"
)

// scribblePool takes pool buffers of a decoded frame's size, overwrites
// them, and returns the func that puts them back. A value still aliasing
// a frame that went back to the pool changes under the caller's feet, and
// a frame that went back twice comes out of the pool twice.
func scribblePool(t *testing.T, n int) (release func()) {
	var held [4]*[]byte
	for i := range held {
		held[i] = bufpool.Get(n)
		for j := 0; j < i; j++ {
			if held[i] == held[j] {
				t.Fatalf("the pool handed out one buffer twice: a frame was returned more than once")
			}
		}
		for j := range *held[i] {
			(*held[i])[j] = 0xA5
		}
	}
	return func() {
		for _, bp := range held {
			bufpool.Put(bp)
		}
	}
}

// FuzzReadHeader feeds arbitrary bytes to the header decoder — the first
// thing a datanode does with a fresh socket. It must return an error or a
// header that encodes back to exactly the frame it was decoded from (so
// the decoder accepts only what the encoder produces), never panic, and
// hand back a header that owns its memory: the pooled frame it was
// decoded from is recycled and overwritten before the comparison.
func FuzzReadHeader(f *testing.F) {
	encode := func(tb testing.TB, op Op, h any) []byte {
		var buf duplex
		if err := NewConn(&buf).WriteHeader(op, h); err != nil {
			tb.Fatal(err)
		}
		return buf.Bytes()
	}
	write := encode(f, OpWriteBlock, &WriteBlockHeader{
		Block: block.Block{ID: 42, Gen: 7, NumBytes: 1234},
		Targets: []block.DatanodeInfo{
			{Name: "dn2", Addr: "mem://dn2", Rack: "/rack-a"},
			{Name: "dn3", Addr: "mem://dn3", Rack: "/rack-b"},
		},
		Client: "client-1", Mode: ModeSmarth, Depth: 1, BlockBytes: 64 << 20,
	})
	read := encode(f, OpReadBlock, &ReadBlockHeader{Block: block.Block{ID: 9, Gen: 2, NumBytes: 77}, Offset: 512, Length: -1})
	wrongVersion := append([]byte(nil), read...)
	wrongVersion[4] = Version - 1
	padded := append(append([]byte(nil), read...), 0) // one byte too many inside the frame
	padded[3]++
	for _, seed := range [][]byte{
		write, read, wrongVersion, padded,
		encode(f, OpWriteBlock, &WriteBlockHeader{}),
		write[:len(write)/2], write[:len(write)-1], read[:5], read[:3], {},
		append(append([]byte(nil), read...), 0), // trailing byte inside the stream, outside the frame
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		var in duplex
		in.Write(raw)
		op, h, err := NewConn(&in).ReadHeader()
		if err != nil {
			return
		}
		// A header still aliasing its (returned) frame would change.
		release := scribblePool(t, len(raw))
		again := encode(t, op, h)
		release()
		if !bytes.HasPrefix(raw, again) {
			t.Fatalf("decoded %v %+v from\n%x\nbut it encodes to\n%x", op, h, raw, again)
		}
	})
}

// FuzzReadPacket feeds arbitrary bytes to the data-packet decoder, which
// every pipeline hop runs on bytes from its upstream peer. It must return
// an error or a packet that encodes back to exactly the frame it was
// decoded from, never panic, and return the pooled frame exactly once —
// on Release for a decoded packet, before returning for a rejected one.
func FuzzReadPacket(f *testing.F) {
	encode := func(tb testing.TB, p *Packet) []byte {
		var buf duplex
		if err := NewConn(&buf).WritePacket(p); err != nil {
			tb.Fatal(err)
		}
		return buf.Bytes()
	}
	data := []byte("0123456789abcdef")
	full := encode(f, &Packet{Seqno: 3, Offset: 48, Sums: []uint32{0xdeadbeef, 7}, Data: data})
	last := encode(f, &Packet{Seqno: 4, Offset: 64, Last: true})
	// Counts that disagree with the frame length, each in its own copy.
	moreSums := append([]byte(nil), full...)
	moreSums[4+20]++
	lessData := append([]byte(nil), full...)
	lessData[4+24]--
	hugeSums := append([]byte(nil), full...)
	hugeSums[4+17] = 0xff
	unknownFlag := append([]byte(nil), full...)
	unknownFlag[4+16] = 2
	for _, seed := range [][]byte{
		full, last, moreSums, lessData, hugeSums, unknownFlag,
		full[:len(full)-1], full[:4+25], full[:4+24], full[:3], {},
		append(append([]byte(nil), last...), 0), // trailing byte outside the frame
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		var in duplex
		in.Write(raw)
		p, err := NewConn(&in).ReadPacket()
		var again []byte
		if err == nil {
			again = encode(t, p) // the packet borrows its frame until Release
			p.Release()
		}
		scribblePool(t, len(raw))()
		if err == nil && !bytes.HasPrefix(raw, again) {
			t.Fatalf("decoded a packet from\n%x\nbut it encodes to\n%x", raw, again)
		}
	})
}

// FuzzReadAck feeds arbitrary bytes to the ack decoder, which the client
// and every mirroring datanode run on bytes from downstream. It must
// return an error or an ack that encodes back to exactly the frame it was
// decoded from, never panic, and hand back an ack that owns its memory:
// the pooled frame is recycled and overwritten before the comparison.
func FuzzReadAck(f *testing.F) {
	encode := func(tb testing.TB, a *Ack) []byte {
		var buf duplex
		if err := NewConn(&buf).WriteAck(a); err != nil {
			tb.Fatal(err)
		}
		return buf.Bytes()
	}
	data := encode(f, &Ack{Kind: AckData, Seqno: 9, Statuses: []Status{StatusSuccess, StatusSuccess, StatusSuccess}})
	fnfa := encode(f, &Ack{Kind: AckFNFA, Seqno: -1})
	moreStatuses := append([]byte(nil), data...)
	moreStatuses[4+10]++
	fewerStatuses := append([]byte(nil), data...)
	fewerStatuses[4+10]--
	for _, seed := range [][]byte{
		data, fnfa, moreStatuses, fewerStatuses,
		data[:len(data)-1], data[:4+11], data[:4+10], data[:3], {},
		append(append([]byte(nil), fnfa...), 0), // trailing byte outside the frame
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		var in duplex
		in.Write(raw)
		a, err := NewConn(&in).ReadAck()
		release := scribblePool(t, len(raw))
		defer release()
		if err != nil {
			return
		}
		if again := encode(t, a); !bytes.HasPrefix(raw, again) {
			t.Fatalf("decoded %+v from\n%x\nbut it encodes to\n%x", a, raw, again)
		}
	})
}
