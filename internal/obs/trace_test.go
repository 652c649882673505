package obs

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/clock"
)

func testTracer() (*Tracer, *clock.Manual) {
	clk := clock.NewManual(time.Unix(1000, 0))
	return NewTracer(clk), clk
}

func TestSpanTreeAndJSONLRoundTrip(t *testing.T) {
	tr, clk := testTracer()
	write := tr.StartSpan("write", nil)
	write.SetAttr("path", "/f")
	clk.Advance(time.Millisecond)
	blk := tr.StartSpan("block", write)
	blk.SetAttr("block", "blk_1")
	pipe := tr.StartSpan("pipeline", blk)
	pipe.SetAttr("targets", "dn1>dn2>dn3")
	clk.Advance(2 * time.Millisecond)
	pipe.Event("fnfa", "")
	pipe.Packet("send", 0)
	clk.Advance(time.Millisecond)
	pipe.End()
	pipe.End() // idempotent: keeps the first end time
	blk.End()
	write.End()

	recs := tr.Snapshot()
	if len(recs) != 3 {
		t.Fatalf("got %d spans, want 3", len(recs))
	}
	if recs[0].Parent != 0 || recs[1].Parent != recs[0].ID || recs[2].Parent != recs[1].ID {
		t.Fatalf("span tree broken: %+v", recs)
	}
	if recs[2].Duration() != 3*time.Millisecond {
		t.Fatalf("pipeline duration = %v, want 3ms", recs[2].Duration())
	}
	if n := len(recs[2].Events); n != 2 {
		t.Fatalf("pipeline has %d events, want 2 (fnfa + sampled packet)", n)
	}

	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(recs, back) {
		t.Fatalf("JSONL round trip mismatch:\n got %+v\nwant %+v", back, recs)
	}
}

func TestPacketSampling(t *testing.T) {
	tr, _ := testTracer()
	s := tr.StartSpan("pipeline", nil)
	for i := int64(0); i < 2*packetSampling; i++ {
		s.Packet("send", i)
	}
	s.End()
	var seqnos []int64
	for _, e := range tr.Snapshot()[0].Events {
		seqnos = append(seqnos, e.Seqno)
	}
	if len(seqnos) != 2 || seqnos[0] != 0 || seqnos[1] != packetSampling {
		t.Fatalf("recorded packets %v of %d at 1/%d sampling, want [0 %d]", seqnos, 2*packetSampling, packetSampling, packetSampling)
	}
}

func TestFailMarksStatus(t *testing.T) {
	tr, _ := testTracer()
	s := tr.StartSpan("pipeline", nil)
	s.Fail(errFake{})
	s.End()
	r := tr.Snapshot()[0]
	if r.Status != "error" {
		t.Fatalf("status = %q, want error", r.Status)
	}
	if len(r.Events) != 1 || r.Events[0].Name != "error" || r.Events[0].Detail != "boom" {
		t.Fatalf("events = %+v", r.Events)
	}
}

type errFake struct{}

func (errFake) Error() string { return "boom" }

func TestReadJSONLBadLine(t *testing.T) {
	if _, err := ReadJSONL(strings.NewReader("{\"id\":1,\"name\":\"x\",\"start_us\":1}\nnot json\n")); err == nil {
		t.Fatal("want error on malformed line")
	} else if !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("error should name the line: %v", err)
	}
}

func TestRenderTimeline(t *testing.T) {
	tr, clk := testTracer()
	write := tr.StartSpan("write", nil)
	blk := tr.StartSpan("block", write)
	p1 := tr.StartSpan("pipeline", blk)
	p1.SetAttr("targets", "dn1>dn2>dn3")
	clk.Advance(5 * time.Millisecond)
	p1.Fail(errFake{})
	p1.End()
	rec := tr.StartSpan("recovery", blk)
	clk.Advance(3 * time.Millisecond)
	rec.End()
	blk.End()
	write.End()

	var b strings.Builder
	RenderTimeline(&b, tr.Snapshot())
	out := b.String()
	for _, want := range []string{"write#1", "block#2", "pipeline#3", "recovery#4", "targets=dn1>dn2>dn3", "[ERROR]", "boom"} {
		if !strings.Contains(out, want) {
			t.Errorf("timeline missing %q:\n%s", want, out)
		}
	}

	var empty strings.Builder
	RenderTimeline(&empty, nil)
	if !strings.Contains(empty.String(), "empty trace") {
		t.Error("empty trace should say so")
	}
}
