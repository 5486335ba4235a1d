package main

import (
	"bufio"
	"cmp"
	"encoding/json"
	"os"
	"slices"
	"sync/atomic"
	"time"
)

// spanRec is one recorded span: a harness call into a layer, or a unit
// of work (a request, a drive) grouping such calls.
type spanRec struct {
	Trace  int32  `json:"trace"`
	ID     int32  `json:"id"`
	Parent int32  `json:"parent,omitempty"`
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Self   int64  `json:"self_ns"`
	N      int    `json:"n,omitempty"`
	Bits   int    `json:"bits,omitempty"`
	Algo   string `json:"algo,omitempty"`
}

// attrs are a span's optional attributes.
type attrs struct {
	n, bits int
	algo    string
}

// tracer keeps spans in a slice allocated up front, so recording is one
// atomic increment and two clock reads; the spans are written once, at
// exit. A nil *tracer records nothing. Safe for concurrent begin/end on
// distinct spans.
type tracer struct {
	t0      time.Time
	spans   []spanRec
	n       atomic.Int32
	dropped atomic.Int64
}

func newTracer(capacity int) *tracer {
	return &tracer{t0: time.Now(), spans: make([]spanRec, capacity)}
}

// span is an open span; end closes it and returns its duration, which is
// also what the harness derives the layer metrics from.
type span struct {
	t     *tracer
	id    int32
	start time.Time
}

// begin opens a span under parent. Children of a top-level span (a call,
// a request, a drive) share its trace id.
func (t *tracer) begin(parent span, layer, name string, a attrs) span {
	s := span{t: t, start: time.Now()}
	if t == nil {
		return s
	}
	i := t.n.Add(1) - 1
	if int(i) >= len(t.spans) {
		t.dropped.Add(1)
		return s
	}
	s.id = i + 1
	trace := s.id
	if parent.id != 0 {
		if p := &t.spans[parent.id-1]; p.Parent != 0 {
			trace = p.Trace
		}
	}
	t.spans[i] = spanRec{Trace: trace, ID: s.id, Parent: parent.id, Layer: layer, Name: name,
		Start: int64(s.start.Sub(t.t0)), N: a.n, Bits: a.bits, Algo: a.algo}
	return s
}

// end closes the span and returns its duration.
func (s span) end() time.Duration {
	now := time.Now()
	if s.id != 0 {
		s.t.spans[s.id-1].End = int64(now.Sub(s.t.t0))
	}
	return now.Sub(s.start)
}

// finish derives every span's self time — its duration minus the part of
// it that its children cover — and returns the spans, the derivation's
// own span last. Call once, after every recording goroutine has returned.
func (t *tracer) finish() []spanRec {
	self := t.begin(span{}, "trace", "self-times", attrs{})
	defer func() {
		if self.id != 0 {
			s := &t.spans[self.id-1]
			s.End = int64(time.Since(t.t0))
			s.Self = s.End - s.Start
		}
	}()
	spans := t.spans[:min(int(t.n.Load()), len(t.spans))]
	kids := make(map[int32][]int32)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s.ID)
		}
	}
	for i := range spans {
		s := &spans[i]
		var iv [][2]int64
		for _, k := range kids[s.ID] {
			c := spans[k-1]
			iv = append(iv, [2]int64{max(c.Start, s.Start), min(c.End, s.End)})
		}
		slices.SortFunc(iv, func(a, b [2]int64) int { return cmp.Compare(a[0], b[0]) })
		covered, reach := int64(0), s.Start
		for _, v := range iv {
			lo := max(v[0], reach)
			if v[1] > lo {
				covered += v[1] - lo
				reach = v[1]
			}
		}
		s.Self = s.End - s.Start - covered
	}
	return spans
}

// writeSpans writes one JSON object per line.
func writeSpans(path string, spans []spanRec) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
