package proto

import (
	"bytes"
	"net"
	"testing"

	"repro/internal/checksum"
)

// vecSink is a BuffersWriter-capable stream: the duck type the frame
// writer probes for writev support (net.TCPConn in production). It
// consumes the vector list the way net.Buffers.WriteTo does.
type vecSink struct {
	buf     bytes.Buffer
	writes  int // plain Write calls
	gathers int // WriteBuffers calls
	vecs    int // total vectors across all gathers
}

func (s *vecSink) Write(p []byte) (int, error) {
	s.writes++
	return s.buf.Write(p)
}

func (s *vecSink) Read(p []byte) (int, error) { return s.buf.Read(p) }

func (s *vecSink) WriteBuffers(bufs *net.Buffers) (int64, error) {
	s.gathers++
	var n int64
	for len(*bufs) > 0 {
		b := (*bufs)[0]
		*bufs = (*bufs)[1:]
		s.vecs++
		m, err := s.buf.Write(b)
		n += int64(m)
		if err != nil {
			return n, err
		}
	}
	return n, nil
}

// A full-size data packet on a gather-capable stream must go out as one
// vectored write — header+checksums staged, payload borrowed — with no
// sequential Write fallback and no payload copy into the stage.
func TestVectoredWriteUsesGather(t *testing.T) {
	data := make([]byte, DefaultPacketSize)
	for i := range data {
		data[i] = byte(i * 3)
	}
	sums := checksum.Sum(data, DefaultChunkSize)
	var sink vecSink
	c := NewConn(&sink)
	if err := c.WritePacket(&Packet{Seqno: 7, Sums: sums, Data: data, Last: true}); err != nil {
		t.Fatal(err)
	}
	if sink.gathers != 1 || sink.writes != 0 {
		t.Fatalf("full-size packet: %d gathers + %d plain writes, want 1 + 0", sink.gathers, sink.writes)
	}
	if sink.vecs != 2 {
		t.Fatalf("gather carried %d vectors, want 2 (staged header+sums, borrowed payload)", sink.vecs)
	}

	r := NewConn(&sink.buf)
	p, err := r.ReadPacket()
	if err != nil {
		t.Fatal(err)
	}
	defer p.Release()
	if p.Seqno != 7 || !p.Last || !bytes.Equal(p.Data, data) {
		t.Fatalf("vectored frame corrupted: seqno=%d last=%v", p.Seqno, p.Last)
	}
	if err := checksum.VerifyEncoded(p.Data, p.RawSums, DefaultChunkSize); err != nil {
		t.Fatal(err)
	}
}

// The write path must stay allocation-free at steady state for both
// frame shapes: a full-size packet's borrowed payload and a small
// packet's copied one. The frame buffer and the gather vectors are owned
// by the conn and reused across frames.
func TestVectoredWritePacketAllocs(t *testing.T) {
	skipUnderRace(t)
	var sink vecSink
	c := NewConn(&sink)
	for _, size := range []int{DefaultPacketSize, 256} {
		data := make([]byte, size)
		pkt := &Packet{Sums: checksum.Sum(data, DefaultChunkSize), Data: data}
		avg := testing.AllocsPerRun(200, func() {
			sink.buf.Reset()
			if err := c.WritePacket(pkt); err != nil {
				t.Fatal(err)
			}
		})
		if avg > 0 {
			t.Fatalf("vectored WritePacket of %d B allocates %.1f times per packet, want 0", size, avg)
		}
	}
}
