package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/clock"
)

// packetSampling records one packet-level span event out of every N;
// packets between samples cost one atomic-free counter bump.
const packetSampling = 64

// Tracer creates spans and collects them for export. All methods are
// safe for concurrent use; a nil *Tracer is a no-op.
type Tracer struct {
	clk clock.Clock

	mu     sync.Mutex
	spans  []*Span
	nextID int64
}

// NewTracer returns a tracer stamping times from clk (nil = system
// clock).
func NewTracer(clk clock.Clock) *Tracer {
	if clk == nil {
		clk = clock.System
	}
	return &Tracer{clk: clk}
}

// StartSpan opens a span under parent (nil parent = root). Span
// creation locks and allocates; it belongs on cold paths (per write,
// per block, per pipeline, per recovery). Nil-safe.
func (t *Tracer) StartSpan(name string, parent *Span) *Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	t.nextID++
	s := &Span{
		t:     t,
		id:    t.nextID,
		name:  name,
		start: t.clk.Now(),
	}
	if parent != nil {
		s.parent = parent.id
	}
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return s
}

// attr is one key/value pair; a small slice beats a map for the handful
// of attributes spans carry.
type attr struct{ k, v string }

// Event is one timestamped occurrence within a span.
type Event struct {
	T      time.Time
	Name   string
	Seqno  int64 // -1 when not packet-related
	Detail string
}

// Span is one traced operation. Methods are safe for concurrent use and
// nil-safe; End is idempotent.
type Span struct {
	t      *Tracer
	id     int64
	parent int64
	name   string
	start  time.Time

	mu      sync.Mutex
	attrs   []attr
	events  []Event
	end     time.Time
	status  string
	nPacket int
}

// ID returns the span's trace-unique id (0 for nil).
func (s *Span) ID() int64 {
	if s == nil {
		return 0
	}
	return s.id
}

// SetAttr attaches (or overwrites) a key/value attribute.
func (s *Span) SetAttr(k, v string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	for i := range s.attrs {
		if s.attrs[i].k == k {
			s.attrs[i].v = v
			s.mu.Unlock()
			return
		}
	}
	s.attrs = append(s.attrs, attr{k, v})
	s.mu.Unlock()
}

// Event records a named event with optional detail.
func (s *Span) Event(name, detail string) {
	if s == nil {
		return
	}
	now := s.t.clk.Now()
	s.mu.Lock()
	s.events = append(s.events, Event{T: now, Name: name, Seqno: -1, Detail: detail})
	s.mu.Unlock()
}

// Packet records a packet-level event, one call in packetSampling per
// span. Between samples the cost is the span mutex and an integer
// increment.
func (s *Span) Packet(name string, seqno int64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.nPacket++
	if s.nPacket%packetSampling == 1 {
		s.events = append(s.events, Event{T: s.t.clk.Now(), Name: name, Seqno: seqno})
	}
	s.mu.Unlock()
}

// Fail marks the span failed and records the error as an event.
func (s *Span) Fail(err error) {
	if s == nil {
		return
	}
	detail := ""
	if err != nil {
		detail = err.Error()
	}
	s.mu.Lock()
	s.status = "error"
	s.events = append(s.events, Event{T: s.t.clk.Now(), Name: "error", Seqno: -1, Detail: detail})
	s.mu.Unlock()
}

// End closes the span. Idempotent; later calls keep the first end time.
func (s *Span) End() {
	if s == nil {
		return
	}
	now := s.t.clk.Now()
	s.mu.Lock()
	if s.end.IsZero() {
		s.end = now
	}
	s.mu.Unlock()
}

// EventRecord is the exported (JSONL) form of an Event. Times are
// microseconds since the Unix epoch on the tracer's clock.
type EventRecord struct {
	TUS    int64  `json:"t_us"`
	Name   string `json:"name"`
	Seqno  int64  `json:"seqno,omitempty"`
	Detail string `json:"detail,omitempty"`
}

// SpanRecord is the exported (JSONL) form of a Span: one JSON object
// per line, children referencing parents by id.
type SpanRecord struct {
	ID      int64             `json:"id"`
	Parent  int64             `json:"parent,omitempty"`
	Name    string            `json:"name"`
	StartUS int64             `json:"start_us"`
	EndUS   int64             `json:"end_us,omitempty"` // 0 = still open at export
	Status  string            `json:"status,omitempty"`
	Attrs   map[string]string `json:"attrs,omitempty"`
	Events  []EventRecord     `json:"events,omitempty"`
}

// Duration returns the span's duration, or 0 when still open.
func (r SpanRecord) Duration() time.Duration {
	if r.EndUS == 0 {
		return 0
	}
	return time.Duration(r.EndUS-r.StartUS) * time.Microsecond
}

func (s *Span) record() SpanRecord {
	s.mu.Lock()
	defer s.mu.Unlock()
	r := SpanRecord{
		ID:      s.id,
		Parent:  s.parent,
		Name:    s.name,
		StartUS: s.start.UnixMicro(),
		Status:  s.status,
	}
	if !s.end.IsZero() {
		r.EndUS = s.end.UnixMicro()
	}
	if len(s.attrs) > 0 {
		r.Attrs = make(map[string]string, len(s.attrs))
		for _, a := range s.attrs {
			r.Attrs[a.k] = a.v
		}
	}
	for _, e := range s.events {
		r.Events = append(r.Events, EventRecord{
			TUS:    e.T.UnixMicro(),
			Name:   e.Name,
			Seqno:  e.Seqno,
			Detail: e.Detail,
		})
	}
	return r
}

// Snapshot exports every span started so far (finished or not), in
// start order. Nil-safe.
func (t *Tracer) Snapshot() []SpanRecord {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	spans := append([]*Span(nil), t.spans...)
	t.mu.Unlock()
	out := make([]SpanRecord, 0, len(spans))
	for _, s := range spans {
		out = append(out, s.record())
	}
	return out
}

// WriteJSONL writes the trace as one JSON span per line. Nil-safe.
func (t *Tracer) WriteJSONL(w io.Writer) error {
	return WriteJSONL(w, t.Snapshot())
}

// WriteJSONL writes span records as JSONL.
func WriteJSONL(w io.Writer, spans []SpanRecord) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, r := range spans {
		if err := enc.Encode(r); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadJSONL parses a JSONL trace written by WriteJSONL. Blank lines are
// skipped; a malformed line fails with its line number.
func ReadJSONL(r io.Reader) ([]SpanRecord, error) {
	var out []SpanRecord
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 8<<20)
	line := 0
	for sc.Scan() {
		line++
		b := sc.Bytes()
		if len(b) == 0 {
			continue
		}
		var rec SpanRecord
		if err := json.Unmarshal(b, &rec); err != nil {
			return nil, fmt.Errorf("obs: trace line %d: %w", line, err)
		}
		out = append(out, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}
