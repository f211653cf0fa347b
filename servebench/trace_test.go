package main

import (
	"path/filepath"
	"reflect"
	"testing"
)

func TestSelfTimes(t *testing.T) {
	cases := []struct {
		name  string
		spans []Span
		want  []int64
	}{
		{
			name: "nested",
			spans: []Span{
				{Name: "op.bmo", Start: 0, End: 100},
				{Name: "psql.exec", Parent: 1, Start: 10, End: 40},
				{Name: "engine.bmo", Parent: 2, Start: 20, End: 30},
				{Name: "wire.encode", Parent: 1, Start: 50, End: 90},
			},
			want: []int64{30, 20, 10, 40},
		},
		{
			name: "overlapping children count once",
			spans: []Span{
				{Name: "op.bmo", Start: 0, End: 100},
				{Name: "a", Parent: 1, Start: 10, End: 60},
				{Name: "b", Parent: 1, Start: 40, End: 80},
			},
			want: []int64{30, 50, 40},
		},
		{
			name: "parallel children clipped to parent",
			spans: []Span{
				{Name: "op.bmo", Start: 0, End: 100},
				{Name: "a", Parent: 1, Start: -10, End: 50},
				{Name: "b", Parent: 1, Start: 60, End: 130},
				{Name: "c", Parent: 1, Start: 70, End: 90},
			},
			want: []int64{10, 60, 70, 20},
		},
		{
			name: "child outside parent covers nothing",
			spans: []Span{
				{Name: "op.bmo", Start: 0, End: 100},
				{Name: "a", Parent: 1, Start: 120, End: 150},
			},
			want: []int64{100, 30},
		},
	}
	for _, tc := range cases {
		if got := SelfTimes(tc.spans); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: self times %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestSelfTimesSumToRoot checks the identity the traced run relies on:
// with sequential, nested children the self times of an op's spans sum
// to its root span.
func TestSelfTimesSumToRoot(t *testing.T) {
	tr := NewTracer()
	root := tr.Begin(1, 0, "op.bmo")
	a := tr.Begin(1, root, "psql.exec")
	b := tr.Begin(1, a, "engine.bmo")
	tr.End(b)
	tr.End(a)
	c := tr.Begin(1, root, "wire.encode")
	tr.End(c)
	tr.End(root)
	spans := tr.Spans()
	var sum int64
	for _, s := range SelfTimes(spans) {
		sum += s
	}
	if d := spans[0].End - spans[0].Start; sum != d {
		t.Fatalf("self times sum to %d, root is %d", sum, d)
	}
}

func TestSpanFileRoundTrip(t *testing.T) {
	host := hostRecord(workloads[2], 42, 1000, 5)
	spans := []Span{
		{Name: "op.bmo", Op: 7, Start: 1, End: 900},
		{Name: "engine.bmo", Op: 7, Parent: 1, Start: 5, End: 800},
		{Name: "engine.plan", Op: 7, Start: 901, End: 950},
	}
	path := filepath.Join(t.TempDir(), "spans.jsonl")
	if err := WriteSpans(path, host, spans); err != nil {
		t.Fatal(err)
	}
	gotHost, gotSpans, err := ReadSpans(path)
	if err != nil {
		t.Fatal(err)
	}
	if gotHost != host || !reflect.DeepEqual(gotSpans, spans) {
		t.Fatalf("round trip: %+v %+v, want %+v %+v", gotHost, gotSpans, host, spans)
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *Tracer
	h := tr.Begin(1, 0, "op.bmo")
	tr.End(h)
	if h != 0 || tr.Spans() != nil {
		t.Fatalf("nil tracer returned handle %d, spans %v", h, tr.Spans())
	}
}
