package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"time"
)

// Span is one timed call into a layer. Parent is the index+1 of the
// enclosing span in the same Tracer (0 for a root), Op the op id the
// call served; Start and End are nanoseconds since the tracer's base.
type Span struct {
	Name   string `json:"name"`
	Op     int    `json:"op"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
}

// Tracer keeps spans in memory; they are written out once the run ends.
// A nil *Tracer records nothing, so untraced code paths call the same
// methods.
type Tracer struct {
	base  time.Time
	spans []Span
}

// NewTracer returns a tracer whose clock starts now.
func NewTracer() *Tracer { return &Tracer{base: time.Now()} }

// Begin opens a span and returns its handle (index+1; 0 when t is nil).
func (t *Tracer) Begin(op, parent int, name string) int {
	if t == nil {
		return 0
	}
	t.spans = append(t.spans, Span{Name: name, Op: op, Parent: parent, Start: int64(time.Since(t.base))})
	return len(t.spans)
}

// End closes the span with the given handle.
func (t *Tracer) End(h int) {
	if t == nil || h == 0 {
		return
	}
	t.spans[h-1].End = int64(time.Since(t.base))
}

// Spans returns the recorded spans.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	return t.spans
}

// SelfTimes returns each span's self time: its duration minus the part
// of its interval covered by the union of its children, each child
// clipped to the parent. Children that run in parallel or overlap count
// once.
func SelfTimes(spans []Span) []int64 {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent > 0 {
			children[s.Parent-1] = append(children[s.Parent-1], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = (s.End - s.Start) - covered(s, spans, children[i])
	}
	return self
}

// covered is the length of the union of the child intervals clipped to
// parent p.
func covered(p Span, spans []Span, kids []int) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := max(spans[k].Start, p.Start), min(spans[k].End, p.End)
		if a < b {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total int64
	for i := 0; i < len(ivs); {
		a, b := ivs[i].a, ivs[i].b
		for i++; i < len(ivs) && ivs[i].a <= b; i++ {
			b = max(b, ivs[i].b)
		}
		total += b - a
	}
	return total
}

// traceHeader is the first line of a span file: the host record, so a
// span file is never compared with one captured elsewhere.
type traceHeader struct {
	Host Host `json:"host"`
}

// WriteSpans writes the host record and then one JSON span per line.
func WriteSpans(path string, host Host, spans []Span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	if err := enc.Encode(traceHeader{Host: host}); err != nil {
		f.Close()
		return err
	}
	for _, s := range spans {
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

// ReadSpans reads a file written by WriteSpans.
func ReadSpans(path string) (Host, []Span, error) {
	f, err := os.Open(path)
	if err != nil {
		return Host{}, nil, err
	}
	defer f.Close()
	dec := json.NewDecoder(bufio.NewReader(f))
	var hdr traceHeader
	if err := dec.Decode(&hdr); err != nil {
		return Host{}, nil, fmt.Errorf("span file header: %w", err)
	}
	var spans []Span
	for {
		var s Span
		err := dec.Decode(&s)
		if err == io.EOF {
			return hdr.Host, spans, nil
		}
		if err != nil {
			return Host{}, nil, fmt.Errorf("span %d: %w", len(spans), err)
		}
		spans = append(spans, s)
	}
}
