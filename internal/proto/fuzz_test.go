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
		// Size hints at and past the protocol's maximum: the second killed a
		// MemStore datanode at 19afe22 (a 512 GB preallocation).
		encode(f, OpWriteBlock, &WriteBlockHeader{Block: block.Block{ID: 1, Gen: 1}, BlockBytes: MaxBlockSize}),
		encode(f, OpWriteBlock, &WriteBlockHeader{Block: block.Block{ID: 1, Gen: 1}, BlockBytes: 1 << 39}),
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
		if wh, ok := h.(*WriteBlockHeader); ok && (wh.BlockBytes < 0 || wh.BlockBytes > MaxBlockSize) {
			t.Fatalf("accepted a block size hint of %d", wh.BlockBytes)
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

// fuzzLender is the Lender FuzzReadPacket and the placing-decoder tests
// drive, recording what it was asked and whether it took the payload.
type fuzzLender struct {
	mem      []byte // what it has to lend; nil declines
	short    int    // lend this many bytes fewer than asked, which declines too
	calls    int
	offset   int64 // the last call's arguments
	n        int
	accepted bool // the last call returned at least n bytes
}

func (l *fuzzLender) Lend(offset int64, n int) []byte {
	l.calls++
	l.offset, l.n = offset, n
	if l.mem == nil || n-l.short < 0 {
		return nil
	}
	l.accepted = l.short == 0 && n <= len(l.mem)
	return l.mem[:min(n-l.short, len(l.mem))]
}

// FuzzReadPacket feeds arbitrary bytes to the data-packet decoder, which
// every pipeline hop runs on bytes from its upstream peer, with nothing to
// lend (ReadPacket) and with a lender that accepts, declines, or comes up
// short. It must return an error or a packet that encodes back to exactly
// the frame it was decoded from, never panic, ask the lender at most once
// and only about the packet it returns, put the payload in lent memory
// exactly when the lender accepted, and return the pooled frame exactly
// once — on Release for a decoded packet, before returning for a rejected
// one — without Release touching what was lent.
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
		for lend := uint8(0); lend < 4; lend++ {
			f.Add(seed, lend)
		}
	}
	f.Fuzz(func(t *testing.T, raw []byte, lend uint8) {
		var in duplex
		in.Write(raw)
		var to Lender
		var l *fuzzLender
		switch lend % 4 {
		case 1: // accepts
			l = &fuzzLender{mem: make([]byte, len(raw))}
		case 2: // declines
			l = &fuzzLender{}
		case 3: // comes up one byte short
			l = &fuzzLender{mem: make([]byte, len(raw)), short: 1}
		}
		if l != nil {
			to = l
		}
		p, err := NewConn(&in).ReadPacketInto(to)
		var again, payload []byte
		if err == nil {
			again = encode(t, p) // the packet borrows its frame until Release
			payload = append(payload, p.Data...)
			inLent := l != nil && len(l.mem) > 0 && len(p.Data) > 0 && &p.Data[0] == &l.mem[0]
			if l != nil && (l.calls > 1 || inLent != l.accepted || (l.calls == 1 && (l.offset != p.Offset || l.n != len(p.Data)))) {
				t.Fatalf("lender asked %d times about (%d, %d) and accepted=%v; packet at %d has %d bytes, in lent memory: %v",
					l.calls, l.offset, l.n, l.accepted, p.Offset, len(p.Data), inLent)
			}
			p.Release()
		}
		scribblePool(t, len(raw))()
		if err == nil && !bytes.HasPrefix(raw, again) {
			t.Fatalf("decoded a packet from\n%x\nbut it encodes to\n%x", raw, again)
		}
		if l != nil && l.accepted && !bytes.Equal(l.mem[:len(payload)], payload) {
			t.Fatal("Release (or the pool) touched the memory the payload was lent")
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
