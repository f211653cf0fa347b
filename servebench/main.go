// Command servebench is the repository's serving benchmark: for one
// workload it builds the car catalog, serves it from an in-process
// server.Server on loopback, drives it from one closed-loop
// server.Client session for a fixed time, checks every answer against
// an in-process replay of the same op sequence, and prints the metrics
// named in BENCHMARK.json. With --trace 1 the replay is traced span by
// span and the per-layer metrics are printed instead. See README.md.
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash servebench/run.sh --workload scan-cold --seed 1 --seconds 20 --trace 0
//	bash servebench/run.sh --smoke
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// setupsBefore and setupsAfter are how many times a --trace 0 run sets
// the workload up before its timed window (the last of them is the one
// measured) and after it; setup_s is the median of them all. Spacing
// them around the window samples the host's drifting speed at more
// than one time.
const (
	setupsBefore = 2
	setupsAfter  = 3
)

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type config struct {
	w       Workload
	seed    int64
	seconds int
	trace   bool
	rows    int
	out     string
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: serve-hot, scan-cold or paged-cold")
		seed    = flag.Int64("seed", 1, "seed of the table, the op sequence and the inserted rows")
		seconds = flag.Int("seconds", 10, "length of the timed window")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics; 1: traced replay and per-layer metrics")
		out     = flag.String("out", ".bench_build", "directory for store files and span files")
		smoke   = flag.Bool("smoke", false, "run every workload briefly in both modes and check that every metric in BENCHMARK.json is emitted")
	)
	flag.Parse()
	if *smoke {
		if err := runSmoke(*out); err != nil {
			fmt.Fprintln(os.Stderr, "servebench smoke:", err)
			os.Exit(1)
		}
		fmt.Println("smoke ok")
		return
	}
	w, ok := findWorkload(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "servebench: need --workload serve-hot|scan-cold|paged-cold, --seconds ≥ 1, --trace 0|1")
		os.Exit(2)
	}
	cfg := config{w: w, seed: *seed, seconds: *seconds, trace: *trace == 1, rows: tableRows, out: *out}
	res, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// run performs one benchmark run and returns its result line. It
// prints the host record first.
func run(cfg config) (*result, error) {
	host := hostRecord(cfg.w, cfg.seed, cfg.rows, cfg.seconds)
	hj, _ := json.Marshal(host)
	fmt.Printf("host %s\n", hj)
	before, after := setupsBefore, setupsAfter
	if cfg.trace {
		before, after = 1, 0 // per-layer metrics do not include setup_s
	}
	var setups []float64
	var su *setUpRun
	for i := 0; i < before; i++ {
		if su != nil {
			if err := su.teardown(); err != nil {
				return nil, err
			}
		}
		var err error
		if su, err = setUp(cfg); err != nil {
			return nil, err
		}
		setups = append(setups, su.took)
	}
	wr := su.wr
	hp, err := newHostProbe()
	if err != nil {
		su.teardown()
		return nil, err
	}
	err = wr.timedLoop(su.s, su.gen, time.Duration(cfg.seconds)*time.Second, hp)
	if cerr := hp.close(); err == nil {
		err = cerr
	}
	if terr := su.teardown(); err == nil {
		err = terr
	}
	if err != nil {
		return nil, err
	}
	for i := 0; i < after; i++ {
		su, err := setUp(cfg)
		if err != nil {
			return nil, err
		}
		setups = append(setups, su.took)
		if err := su.teardown(); err != nil {
			return nil, err
		}
		if len(su.wr.failed) > 0 {
			return nil, fmt.Errorf("set-up %d after the window: %d warm-up ops failed", i+1, len(su.wr.failed))
		}
	}
	replayStart := time.Now()
	n := len(wr.answers)
	failed := maps.Clone(wr.failed)
	res := &result{Attempted: n}
	checked := 0
	if !cfg.trace {
		rr, err := replay(cfg.w, cfg.rows, cfg.seed, cfg.out, n, cfg.w.Prefix, nil, wr.answers)
		if err != nil {
			return nil, err
		}
		checked = rr.checked
		merge(failed, rr.failed)
		res.Metrics = endToEnd(wr, setups)
	} else {
		// The untraced replay checks the run's ops and times the measured
		// prefix; the traced replay repeats only up to the prefix's end.
		prefix := cfg.w.Prefix
		plain, err := replay(cfg.w, cfg.rows, cfg.seed, cfg.out, max(n, wr.warm+prefix), prefix, nil, wr.answers)
		if err != nil {
			return nil, err
		}
		tr := NewTracer()
		traced, err := replay(cfg.w, cfg.rows, cfg.seed, cfg.out, wr.warm+prefix, prefix, tr, wr.answers)
		if err != nil {
			return nil, err
		}
		checked = plain.checked
		merge(failed, plain.failed)
		merge(failed, traced.failed)
		if res.Metrics, err = perLayer(wr, plain, traced, tr.Spans(), len(failed), n); err != nil {
			return nil, err
		}
		path := filepath.Join(cfg.out, fmt.Sprintf("spans-%s-seed%d.jsonl", cfg.w.Name, cfg.seed))
		if err := WriteSpans(path, host, tr.Spans()); err != nil {
			return nil, err
		}
	}
	fmt.Fprintf(os.Stderr, "%s seed %d: setup %.2fs ×%d, %d ops in %.1fs, replay %.1fs checked %d\n",
		cfg.w.Name, cfg.seed, quantile(setups, 0.5), len(setups), n, wr.window.Seconds(), time.Since(replayStart).Seconds(), checked)
	res.Failed = len(failed)
	res.Correct = len(failed) == 0
	reportFailures(failed)
	return res, nil
}

// setUpRun is one set-up of a workload: the built tables, the server
// with its session, and the generator and wire run past the warm-up.
type setUpRun struct {
	t    *tables
	s    *serving
	gen  *Gen
	wr   *wireRun
	took float64 // s, from start to the end of the warm-up
}

// setUp builds the workload's tables, serves them and runs the warm-up
// ops over the session: everything before the first timed op.
func setUp(cfg config) (*setUpRun, error) {
	start := time.Now()
	t, err := buildTables(cfg.w, cfg.rows, cfg.out)
	if err != nil {
		return nil, err
	}
	s, err := startServer(t.live)
	if err != nil {
		t.close()
		return nil, err
	}
	su := &setUpRun{t: t, s: s, gen: NewGen(cfg.w.Hot, cfg.seed), wr: &wireRun{}}
	su.wr.warmup(s.client, su.gen)
	su.took = time.Since(start).Seconds()
	return su, nil
}

func (su *setUpRun) teardown() error {
	err := su.s.stop()
	if cerr := su.t.close(); err == nil {
		err = cerr
	}
	return err
}

func merge(dst, src map[int]error) {
	for id, err := range src {
		if _, dup := dst[id]; !dup {
			dst[id] = err
		}
	}
}

// reportFailures prints the first few failed ops to standard error.
func reportFailures(failed map[int]error) {
	ids := make([]int, 0, len(failed))
	for id := range failed {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for i, id := range ids {
		if i == 5 {
			fmt.Fprintf(os.Stderr, "... %d more failed ops\n", len(ids)-i)
			break
		}
		kind := "error"
		if errors.Is(failed[id], errWrongAnswer) {
			kind = "wrong answer"
		}
		fmt.Fprintf(os.Stderr, "failed op %d (%s): %v\n", id, kind, failed[id])
	}
}
