package proto

import (
	"bytes"
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

// writeCounter counts the Write calls that reach the underlying stream.
type writeCounter struct {
	bytes.Buffer
	writes int
}

func (w *writeCounter) Write(p []byte) (int, error) {
	w.writes++
	return w.Buffer.Write(p)
}

// Every frame is on the stream when the call that framed it returns: a
// header, an ack, and each packet whose payload is copied in behind its
// checksums cost exactly one Write, Last or not, and read back intact.
func TestOneWritePerFrame(t *testing.T) {
	small := make([]byte, 256) // below borrowMin, so it is copied into the frame
	for i := range small {
		small[i] = byte(i * 7)
	}
	sums := checksum.Sum(small, DefaultChunkSize)
	var w writeCounter
	c := NewConn(&w)
	want := 0
	step := func(what string, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if want++; w.writes != want {
			t.Fatalf("after the %s: %d transport writes, want %d", what, w.writes, want)
		}
	}
	step("header", c.WriteHeader(OpReadBlock, &ReadBlockHeader{Offset: 512, Length: 4096}))
	const n = 8
	for i := 0; i < n; i++ {
		step("packet", c.WritePacket(&Packet{Seqno: int64(i), Offset: int64(i) * 256, Last: i == n-1, Sums: sums, Data: small}))
	}
	step("ack", c.WriteAck(&Ack{Kind: AckData, Seqno: n - 1, Statuses: []Status{StatusSuccess}}))

	r := NewConn(&w.Buffer)
	op, h, err := r.ReadHeader()
	if err != nil {
		t.Fatal(err)
	}
	if rh, ok := h.(*ReadBlockHeader); op != OpReadBlock || !ok || rh.Offset != 512 || rh.Length != 4096 {
		t.Fatalf("header corrupted: %v %+v", op, h)
	}
	for i := 0; i < n; i++ {
		p, err := r.ReadPacket()
		if err != nil {
			t.Fatalf("packet %d: %v", i, err)
		}
		if p.Seqno != int64(i) || p.Last != (i == n-1) || !bytes.Equal(p.Data, small) {
			t.Fatalf("packet %d corrupted", i)
		}
		if err := checksum.VerifyEncoded(p.Data, p.RawSums, DefaultChunkSize); err != nil {
			t.Fatal(err)
		}
		p.Release()
	}
	a, err := r.ReadAck()
	if err != nil || a.Seqno != n-1 || !a.OK() {
		t.Fatalf("ack = %+v, %v", a, err)
	}
	if w.Len() != 0 {
		t.Fatalf("%d trailing bytes on the stream", w.Len())
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
