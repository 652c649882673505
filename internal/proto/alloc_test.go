package proto

import (
	"bytes"
	"io"
	"sync"
	"testing"

	"repro/internal/checksum"
	"repro/internal/obs"
)

// Allocation-regression bounds for the hot-path codecs. These run the
// steady state (pools warmed by the first iterations of AllocsPerRun)
// and fail if a change reintroduces per-packet garbage.

// skipUnderRace skips pool-dependent allocation counting when built with
// -race, which makes sync.Pool drop puts at random.
func skipUnderRace(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unreliable under -race (sync.Pool drops puts)")
	}
}

func TestWritePacketAllocs(t *testing.T) {
	skipUnderRace(t)
	data := make([]byte, DefaultPacketSize)
	sums := checksum.Sum(data, DefaultChunkSize)
	var buf duplex
	c := NewConn(&buf)
	pkt := &Packet{Sums: sums, Data: data}
	avg := testing.AllocsPerRun(200, func() {
		buf.Reset()
		if err := c.WritePacket(pkt); err != nil {
			t.Fatal(err)
		}
	})
	if avg > 0 {
		t.Fatalf("WritePacket allocates %.1f times per packet, want 0", avg)
	}
}

func TestReadPacketAllocs(t *testing.T) {
	skipUnderRace(t)
	data := make([]byte, DefaultPacketSize)
	sums := checksum.Sum(data, DefaultChunkSize)
	var frame bytes.Buffer
	if err := NewConn(&frame).WritePacket(&Packet{Sums: sums, Data: data}); err != nil {
		t.Fatal(err)
	}
	raw := frame.Bytes()
	var buf duplex
	c := NewConn(&buf)
	avg := testing.AllocsPerRun(200, func() {
		buf.Write(raw)
		p, err := c.ReadPacket()
		if err != nil {
			t.Fatal(err)
		}
		p.Release()
	})
	// Steady state reuses the pooled frame and packet struct; allow a
	// fractional average for pool misses under GC pressure.
	if avg > 0.5 {
		t.Fatalf("ReadPacket allocates %.1f times per packet, want ~0", avg)
	}
}

// TestReadPacketIntoAllocs: the placing read costs nothing per packet —
// the lender is an interface holding a pointer, the header lands in
// conn-owned scratch, and only the checksums take a (pooled) frame.
func TestReadPacketIntoAllocs(t *testing.T) {
	skipUnderRace(t)
	data := make([]byte, DefaultPacketSize)
	var frame bytes.Buffer
	if err := NewConn(&frame).WritePacket(&Packet{Sums: checksum.Sum(data, DefaultChunkSize), Data: data}); err != nil {
		t.Fatal(err)
	}
	raw := frame.Bytes()
	var buf duplex
	c := NewConn(&buf)
	l := &fuzzLender{mem: make([]byte, DefaultPacketSize)}
	avg := testing.AllocsPerRun(200, func() {
		buf.Write(raw)
		p, err := c.ReadPacketInto(l)
		if err != nil {
			t.Fatal(err)
		}
		p.Release()
	})
	if avg > 0 {
		t.Fatalf("ReadPacketInto allocates %.1f times per packet, want 0", avg)
	}
	if !l.accepted {
		t.Fatal("the payload did not land in lent memory")
	}
}

// TestPacketAllocsWithMetrics re-runs the packet codec bounds with the
// observability layer engaged the way a pipeline engages it: frame-level
// ConnMetrics attached and a live span recording a packet event per
// send. The counters are plain atomics and the span samples its packet
// events, so neither may cost an allocation per packet.
func TestPacketAllocsWithMetrics(t *testing.T) {
	skipUnderRace(t)
	m := obs.NewConnMetrics(obs.NewRegistry().Component("conn"))
	span := obs.New(nil).StartSpan("pipeline", nil)
	defer span.End()
	data := make([]byte, DefaultPacketSize)
	sums := checksum.Sum(data, DefaultChunkSize)

	var out duplex
	w := NewConn(&out)
	(&Dialer{Metrics: m}).Arm(w)
	pkt := &Packet{Sums: sums, Data: data}
	var seq int64
	avg := testing.AllocsPerRun(200, func() {
		out.Reset()
		if err := w.WritePacket(pkt); err != nil {
			t.Fatal(err)
		}
		span.Packet("send", seq)
		seq++
	})
	if avg > 0 {
		t.Fatalf("WritePacket with metrics and a span allocates %.1f times per packet, want 0", avg)
	}

	var frame bytes.Buffer
	if err := NewConn(&frame).WritePacket(pkt); err != nil {
		t.Fatal(err)
	}
	raw := frame.Bytes()
	var in duplex
	r := NewConn(&in)
	(&Dialer{Metrics: m}).Arm(r)
	avg = testing.AllocsPerRun(200, func() {
		in.Write(raw)
		p, err := r.ReadPacket()
		if err != nil {
			t.Fatal(err)
		}
		p.Release()
	})
	if avg > 0.5 {
		t.Fatalf("ReadPacket with metrics allocates %.1f times per packet, want ~0", avg)
	}

	if m.FramesOut.Load() == 0 || m.FramesIn.Load() == 0 || m.BytesIn.Load() == 0 || m.BytesOut.Load() == 0 {
		t.Fatalf("conn metrics did not move: in %d/%dB out %d/%dB",
			m.FramesIn.Load(), m.BytesIn.Load(), m.FramesOut.Load(), m.BytesOut.Load())
	}
}

func TestWriteAckAllocs(t *testing.T) {
	skipUnderRace(t)
	var buf duplex
	c := NewConn(&buf)
	a := &Ack{Kind: AckData, Seqno: 9, Statuses: []Status{StatusSuccess, StatusSuccess, StatusSuccess}}
	avg := testing.AllocsPerRun(200, func() {
		buf.Reset()
		if err := c.WriteAck(a); err != nil {
			t.Fatal(err)
		}
	})
	if avg > 0 {
		t.Fatalf("WriteAck allocates %.1f times per ack, want 0", avg)
	}
}

func TestReadAckAllocs(t *testing.T) {
	skipUnderRace(t)
	var frame bytes.Buffer
	in := &Ack{Kind: AckData, Seqno: 9, Statuses: []Status{StatusSuccess, StatusSuccess, StatusSuccess}}
	if err := NewConn(&frame).WriteAck(in); err != nil {
		t.Fatal(err)
	}
	raw := frame.Bytes()
	var buf duplex
	c := NewConn(&buf)
	if buf.Write(raw); true {
		if _, err := c.ReadAck(); err != nil { // warm the statuses scratch
			t.Fatal(err)
		}
	}
	avg := testing.AllocsPerRun(200, func() {
		buf.Write(raw)
		a, err := c.ReadAck()
		if err != nil {
			t.Fatal(err)
		}
		if !a.OK() {
			t.Fatal("bad ack")
		}
	})
	if avg > 0.5 {
		t.Fatalf("ReadAck allocates %.1f times per ack, want ~0", avg)
	}
}

func TestVerifyEncodedAllocs(t *testing.T) {
	data := make([]byte, DefaultPacketSize)
	raw := checksum.Encode(nil, checksum.Sum(data, DefaultChunkSize))
	avg := testing.AllocsPerRun(100, func() {
		if err := checksum.VerifyEncoded(data, raw, DefaultChunkSize); err != nil {
			t.Fatal(err)
		}
	})
	if avg > 0 {
		t.Fatalf("VerifyEncoded allocates %.1f times per call, want 0", avg)
	}
}

// flushCounter counts Write calls reaching the underlying transport —
// with bufio in between, each flush is at most one Write (plus extra
// writes only when a frame overflows the bufio buffer).
type flushCounter struct {
	bytes.Buffer
	writes int
}

func (f *flushCounter) Write(p []byte) (int, error) {
	f.writes++
	return f.Buffer.Write(p)
}

// Corked data packets must coalesce into few transport writes; the Last
// packet must flush even while corked, and acks must always flush.
func TestCorkCoalescesDataFlushes(t *testing.T) {
	small := make([]byte, 256) // far below the bufio buffer size
	sums := checksum.Sum(small, DefaultChunkSize)

	var plain flushCounter
	c := NewConn(&plain)
	for i := 0; i < 8; i++ {
		if err := c.WritePacket(&Packet{Seqno: int64(i), Sums: sums, Data: small}); err != nil {
			t.Fatal(err)
		}
	}
	if plain.writes < 8 {
		t.Fatalf("uncorked: %d transport writes for 8 packets, want >=8 (eager flush)", plain.writes)
	}

	var corked flushCounter
	c2 := NewConn(&corked)
	if err := c2.SetCork(true); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if err := c2.WritePacket(&Packet{Seqno: int64(i), Sums: sums, Data: small}); err != nil {
			t.Fatal(err)
		}
	}
	if corked.writes != 0 {
		t.Fatalf("corked: %d transport writes before uncork, want 0", corked.writes)
	}
	if err := c2.SetCork(false); err != nil {
		t.Fatal(err)
	}
	if corked.writes == 0 {
		t.Fatal("uncork did not flush")
	}

	// Last packet flushes despite the cork.
	var last flushCounter
	c3 := NewConn(&last)
	if err := c3.SetCork(true); err != nil {
		t.Fatal(err)
	}
	if err := c3.WritePacket(&Packet{Seqno: 0, Last: true, Sums: sums, Data: small}); err != nil {
		t.Fatal(err)
	}
	if last.writes == 0 {
		t.Fatal("Last packet did not flush through a corked conn")
	}

	// Acks flush despite the cork.
	var ack flushCounter
	c4 := NewConn(&ack)
	if err := c4.SetCork(true); err != nil {
		t.Fatal(err)
	}
	if err := c4.WriteAck(&Ack{Kind: AckData, Seqno: 1, Statuses: []Status{StatusSuccess}}); err != nil {
		t.Fatal(err)
	}
	if ack.writes == 0 {
		t.Fatal("ack did not flush through a corked conn")
	}
}

// Round-trip through the cork: everything written corked must arrive
// intact once the stream ends with a Last packet.
func TestCorkedStreamRoundTrip(t *testing.T) {
	var buf duplex
	w := NewConn(&buf)
	if err := w.SetCork(true); err != nil {
		t.Fatal(err)
	}
	const n = 5
	data := make([]byte, 4096)
	for i := range data {
		data[i] = byte(i * 7)
	}
	sums := checksum.Sum(data, DefaultChunkSize)
	for i := 0; i < n; i++ {
		if err := w.WritePacket(&Packet{Seqno: int64(i), Offset: int64(i) * 4096, Last: i == n-1, Sums: sums, Data: data}); err != nil {
			t.Fatal(err)
		}
	}
	r := NewConn(&buf)
	for i := 0; i < n; i++ {
		p, err := r.ReadPacket()
		if err != nil {
			t.Fatalf("packet %d: %v", i, err)
		}
		if p.Seqno != int64(i) || !bytes.Equal(p.Data, data) {
			t.Fatalf("packet %d corrupted", i)
		}
		if err := checksum.VerifyEncoded(p.Data, p.RawSums, DefaultChunkSize); err != nil {
			t.Fatal(err)
		}
		p.Release()
	}
	if _, err := r.ReadPacket(); err != io.EOF { //smarth:owns-packet — EOF expected, no packet allocated
		t.Fatalf("trailing read err = %v, want EOF", err)
	}
}

// Pooled packets must be safe to read, release, and re-acquire from
// many goroutines at once (exercised under -race in CI).
func TestPooledPacketConcurrentOwnership(t *testing.T) {
	data := make([]byte, 1024)
	sums := checksum.Sum(data, DefaultChunkSize)
	var frame bytes.Buffer
	if err := NewConn(&frame).WritePacket(&Packet{Seqno: 42, Sums: sums, Data: data}); err != nil {
		t.Fatal(err)
	}
	raw := frame.Bytes()

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf duplex
			c := NewConn(&buf)
			for i := 0; i < 200; i++ {
				buf.Write(raw)
				p, err := c.ReadPacket()
				if err != nil {
					t.Error(err)
					return
				}
				if p.Seqno != 42 || len(p.Data) != len(data) {
					t.Errorf("packet corrupted after pool reuse: %+v", p)
					p.Release()
					return
				}
				// Hand the packet to another goroutine, as the datanode
				// receive loop hands packets to the forwarder.
				wg.Add(1)
				go func(p *Packet) {
					defer wg.Done()
					if err := checksum.VerifyEncoded(p.Data, p.RawSums, DefaultChunkSize); err != nil {
						t.Error(err)
					}
					p.Release()
				}(p)
			}
		}()
	}
	wg.Wait()
}
