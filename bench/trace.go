package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// spanRec is one span recorded by the benchmark around a call into a
// layer. Times are nanoseconds since the tracer was created; spans of
// one operation share Trace (the id of the operation's root span).
type spanRec struct {
	Workload string `json:"workload"`
	ID       int64  `json:"id"`
	Parent   int64  `json:"parent,omitempty"`
	Trace    int64  `json:"trace"`
	Name     string `json:"name"`
	Start    int64  `json:"start_ns"`
	End      int64  `json:"end_ns"`
}

// tracer keeps spans in memory until flush. A nil *tracer records
// nothing, so workloads call it unconditionally.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []spanRec
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// span is an open span; end closes it. A nil *span is a no-op.
type span struct {
	t   *tracer
	idx int
	rec spanRec
}

// start opens a span under parent (nil = a new trace).
func (t *tracer) start(name string, parent *span) *span {
	if t == nil {
		return nil
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	rec := spanRec{ID: int64(len(t.spans) + 1), Name: name, Start: now}
	if parent != nil {
		rec.Parent, rec.Trace = parent.rec.ID, parent.rec.Trace
	} else {
		rec.Trace = rec.ID
	}
	t.spans = append(t.spans, rec)
	return &span{t: t, idx: len(t.spans) - 1, rec: rec}
}

func (s *span) end() {
	if s == nil {
		return
	}
	now := int64(time.Since(s.t.t0))
	s.t.mu.Lock()
	s.t.spans[s.idx].End = now
	s.t.mu.Unlock()
}

// selfTimes returns, per span name, each span's self time in
// nanoseconds: its duration minus the part of it its children cover.
func selfTimes(spans []spanRec) map[string][]float64 {
	children := make(map[int64][]spanRec)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string][]float64)
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			from, to := max(k.Start, edge), min(k.End, s.End)
			if to > from {
				covered += to - from
				edge = to
			}
		}
		out[s.Name] = append(out[s.Name], float64(s.End-s.Start-covered))
	}
	return out
}

// flush writes the spans to path as JSON lines.
func (t *tracer) flush(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
