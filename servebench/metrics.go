package main

import (
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"strings"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for an empty sample).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// endToEnd computes the untraced run's metrics. Op latencies are
// reported as multiples of the host probe's median over the same
// window, which cancels the host's speed drift (README.md,
// "Steadiness"); the traced run reports them in ms as well.
func endToEnd(wr *wireRun, setups []float64) map[string]metric {
	probe := quantile(wr.probe, 0.5)
	m := map[string]metric{
		"setup_s":       {quantile(setups, 0.5), "s"},
		"op_time_probe": {ms(wr.window) / float64(wr.timed) / probe, "probe"},
		"heap_peak_mib": {float64(wr.heapPeak) / (1 << 20), "MiB"},
	}
	for name, v := range wireLatencies(wr) {
		m[name+"_probe"] = metric{v / probe, "probe"}
	}
	return m
}

// wireLatencies are the wire run's per-class medians, in ms.
func wireLatencies(wr *wireRun) map[string]float64 {
	return map[string]float64{
		"bmo_p50":         quantile(wr.lat[ClassBMO], 0.5),
		"topk_p50":        quantile(wr.lat[ClassTopK], 0.5),
		"stream_ttfr_p50": quantile(wr.ttfr, 0.5),
		"select_p50":      quantile(wr.lat[ClassSelect], 0.5),
		"insert_p50":      quantile(wr.lat[ClassInsert], 0.5),
	}
}

// layers are the span-name prefixes whose self time is reported; "op"
// is the replay's own glue between calls.
var layers = []string{"op", "psql", "relation", "engine", "filter", "rank", "wire"}

// perLayer computes the traced run's metrics from the wire run, the
// untraced replay (plain) and the traced replay's spans and counters.
func perLayer(wr *wireRun, plain, traced *replayRun, spans []Span, failed, attempted int) (map[string]metric, error) {
	self := SelfTimes(spans)
	durs := make(map[string][]float64) // span name → durations, µs
	selfByLayer := make(map[string]int64)
	var rootTotal int64
	rootOf := make([]int, len(spans)) // index of each span's root
	treeSelf := make(map[int]int64)
	for i, s := range spans {
		durs[s.Name] = append(durs[s.Name], float64(s.End-s.Start)/1e3)
		rootOf[i] = i
		if s.Parent > 0 {
			rootOf[i] = rootOf[s.Parent-1]
		}
		if !strings.HasPrefix(spans[rootOf[i]].Name, "op.") {
			continue // a probe beside the route, not part of an op
		}
		treeSelf[rootOf[i]] += self[i]
		layer, _, _ := strings.Cut(s.Name, ".")
		selfByLayer[layer] += self[i]
		if s.Parent == 0 {
			rootTotal += s.End - s.Start
		}
	}
	for root, sum := range treeSelf {
		if d := spans[root].End - spans[root].Start; sum != d {
			return nil, fmt.Errorf("op %d: self times sum to %d ns, root span is %d ns", spans[root].Op, sum, d)
		}
	}
	p50 := func(name string, scale float64) float64 { return quantile(durs[name], 0.5) * scale }
	c0, c1 := traced.c0, traced.c1
	m := map[string]metric{
		"failed_frac": {float64(failed) / float64(max(attempted, 1)), "ratio"},
		"bmo_p99_ms":  {quantile(wr.lat[ClassBMO], 0.99), "ms"},
		"bmo_samples": {float64(len(wr.lat[ClassBMO])), "count"},

		"server.bmo_overhead_ms": {bmoOverhead(wr, plain), "ms"},
		"server.queries":         {float64(wr.after.Queries - wr.before.Queries), "count"},
		"server.errors":          {float64(wr.after.Errors - wr.before.Errors), "count"},

		"wire.encode_us":     {p50("wire.encode", 1), "us"},
		"wire.decode_us":     {p50("wire.decode", 1), "us"},
		"wire.bytes_per_row": {ratio(uint64(traced.wireBytes), uint64(traced.wireRows)), "B/row"},

		"psql.parse_us":           {p50("psql.parse", 1), "us"},
		"psql.exec_ms.bmo":        {execP50(spans, ClassBMO), "ms"},
		"psql.exec_ms.topk":       {execP50(spans, ClassTopK), "ms"},
		"psql.exec_ms.stream":     {execP50(spans, ClassStream), "ms"},
		"psql.exec_ms.select":     {execP50(spans, ClassSelect), "ms"},
		"relation.snapshot_us":    {p50("relation.snapshot", 1), "us"},
		"relation.insert_us_p50":  {p50("relation.insert", 1), "us"},
		"relation.insert_us_p99":  {quantile(durs["relation.insert"], 0.99), "us"},
		"relation.materialize_us": {p50("relation.materialize", 1), "us"},

		"engine.plan_us":                 {p50("engine.plan", 1), "us"},
		"engine.bmo_ms":                  {p50("engine.bmo", 1e-3), "ms"},
		"engine.compile_cache.hit_ratio": {ratio(c1.compileHit-c0.compileHit, c1.compileHit-c0.compileHit+c1.compileMiss-c0.compileMiss), "ratio"},

		"resultcache.hit_ratio":          {ratio(c1.rcHit-c0.rcHit, c1.rcHit-c0.rcHit+c1.rcMiss-c0.rcMiss), "ratio"},
		"resultcache.carried_per_insert": {ratio(c1.rcCarry-c0.rcCarry, uint64(traced.inserts)), "count"},
		"resultcache.entries":            {float64(c1.rcEntries), "count"},

		"filter.compile_us":      {p50("filter.compile", 1), "us"},
		"filter.cache.hit_ratio": {ratio(c1.filterHit-c0.filterHit, c1.filterHit-c0.filterHit+c1.filterMiss-c0.filterMiss), "ratio"},

		"rank.topk_ms":               {p50("rank.topk", 1e-3), "ms"},
		"rank.score_cache.hit_ratio": {ratio(c1.scoreHit-c0.scoreHit, c1.scoreHit-c0.scoreHit+c1.scoreMiss-c0.scoreMiss), "ratio"},
		"rank.perm_cache.hit_ratio":  {ratio(c1.permHit-c0.permHit, c1.permHit-c0.permHit+c1.permMiss-c0.permMiss), "ratio"},

		"store.pool.hit_ratio":        {ratio(c1.poolHit-c0.poolHit, c1.poolHit-c0.poolHit+c1.poolMiss-c0.poolMiss), "ratio"},
		"store.pool.misses_per_read":  {ratio(c1.poolMiss-c0.poolMiss, uint64(traced.reads)), "count"},
		"store.pool.evictions":        {float64(c1.poolEvict - c0.poolEvict), "count"},
		"store.wal_bytes_per_row":     {ratio(uint64(traced.walBytes), uint64(traced.walRows)), "B/row"},
		"store.segment_bytes_per_row": {ratio(uint64(traced.segBytes), uint64(traced.tableRows)), "B/row"},
		"store.checkpoints":           {float64(traced.ckpts), "count"},

		"runtime.gc_cycles":          {float64(c1.gcCycles - c0.gcCycles), "count"},
		"runtime.alloc_bytes_per_op": {ratio(c1.allocBytes-c0.allocBytes, uint64(len(traced.roots))), "B/op"},

		"trace.overhead_pct": {traceOverhead(plain, traced), "%"},
		"trace.ops":          {float64(len(traced.roots)), "count"},
	}
	m["ops_per_s"] = metric{float64(wr.timed) / wr.window.Seconds(), "1/s"}
	m["host.probe_us"] = metric{quantile(wr.probe, 0.5) * 1e3, "us"}
	for name, v := range wireLatencies(wr) {
		m[name+"_ms"] = metric{v, "ms"}
	}
	for _, l := range layers {
		m["self_share."+l] = metric{float64(selfByLayer[l]) / float64(max(rootTotal, 1)), "ratio"}
	}
	return m, nil
}

// bmoOverhead is the median, over the measured prefix's bmo ops, of
// the wire latency minus the untraced replay's root time for the same
// op: what the server, the session and the socket add to evaluation.
func bmoOverhead(wr *wireRun, plain *replayRun) float64 {
	var d []float64
	for i, c := range plain.rootClass {
		if id := wr.warm + i; c == ClassBMO && id < len(wr.opLat) {
			d = append(d, wr.opLat[id]-ms(plain.roots[i]))
		}
	}
	return quantile(d, 0.5)
}

// traceOverhead is the median per-op difference between the traced and
// untraced replays' root times, as a percentage of the untraced median.
func traceOverhead(plain, traced *replayRun) float64 {
	var d, base []float64
	for i := range min(len(plain.roots), len(traced.roots)) {
		d = append(d, ms(traced.roots[i]-plain.roots[i]))
		base = append(base, ms(plain.roots[i]))
	}
	return 100 * quantile(d, 0.5) / quantile(base, 0.5)
}

// execP50 is the median psql.exec span of one class's ops, in ms.
func execP50(spans []Span, c Class) float64 {
	root := "op." + c.String()
	var xs []float64
	for _, s := range spans {
		if s.Name == "psql.exec" && s.Parent > 0 && spans[s.Parent-1].Name == root {
			xs = append(xs, float64(s.End-s.Start)/1e6)
		}
	}
	return quantile(xs, 0.5)
}

// smokeSeconds is the smoke mode's timed window per run.
const smokeSeconds = 1

// runSmoke runs every workload for a short window in both modes and
// checks that each metric BENCHMARK.json declares for the mode is
// emitted with its declared unit and that no op failed.
func runSmoke(out string) error {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("run from the repository root: %w", err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	for _, ws := range spec.Workloads {
		w, ok := findWorkload(ws.Name)
		if !ok {
			return fmt.Errorf("BENCHMARK.json names unknown workload %q", ws.Name)
		}
		for _, trace := range []bool{false, true} {
			want := spec.EndToEnd
			if trace {
				want = spec.PerLayer
			}
			res, err := run(config{w: w, seed: 1, seconds: smokeSeconds, trace: trace, rows: tableRows, out: out})
			if err != nil {
				return fmt.Errorf("%s trace=%v: %w", w.Name, trace, err)
			}
			if !res.Correct || res.Failed != 0 {
				return fmt.Errorf("%s trace=%v: %d of %d ops failed", w.Name, trace, res.Failed, res.Attempted)
			}
			for _, d := range want {
				got, ok := res.Metrics[d.Name]
				if !ok || got.Unit != d.Unit {
					return fmt.Errorf("%s trace=%v: metric %s [%s] not emitted (got %+v)", w.Name, trace, d.Name, d.Unit, got)
				}
			}
			if len(res.Metrics) != len(want) {
				return fmt.Errorf("%s trace=%v: emitted %d metrics, BENCHMARK.json declares %d", w.Name, trace, len(res.Metrics), len(want))
			}
		}
	}
	return nil
}
