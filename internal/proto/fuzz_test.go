package proto

import (
	"bytes"
	"testing"

	"repro/internal/block"
	"repro/internal/bufpool"
)

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
		// Recycle pool buffers of the frame's size and scribble on them:
		// a header still aliasing its (returned) frame would change.
		var held [4]*[]byte
		for i := range held {
			held[i] = bufpool.Get(len(raw))
			for j := range *held[i] {
				(*held[i])[j] = 0xA5
			}
		}
		again := encode(t, op, h)
		for _, bp := range held {
			bufpool.Put(bp)
		}
		if !bytes.HasPrefix(raw, again) {
			t.Fatalf("decoded %v %+v from\n%x\nbut it encodes to\n%x", op, h, raw, again)
		}
	})
}
