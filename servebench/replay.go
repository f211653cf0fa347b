package main

import (
	"context"
	"fmt"
	"runtime/metrics"
	"time"

	"repro/internal/algebra"
	"repro/internal/engine"
	"repro/internal/engine/resultcache"
	"repro/internal/filter"
	"repro/internal/pref"
	"repro/internal/psql"
	"repro/internal/rank"
	"repro/internal/relation"
	"repro/internal/wire"
)

// The replay runs a workload's op sequence in-process, making for each
// op the public calls the server's executor makes for that statement
// shape (psql.Parse behind a per-session parse cache, Snapshot, then
// the flat or sharded pipeline of psql.execFlat / execSharded /
// ExecStream), wrapping each call in a span when traced. Its answers
// check the wire run's, op for op.

// parseCacheCap mirrors the server session's parse cache (cap 128,
// cleared wholesale when full): a hot workload parses each statement
// once, a cold one every time.
const parseCacheCap = 128

// counters is a reading of the process-wide counters the layers keep.
type counters struct {
	compileHit, compileMiss uint64
	rcHit, rcMiss, rcCarry  uint64
	rcEntries               int
	filterHit, filterMiss   uint64
	scoreHit, scoreMiss     uint64
	permHit, permMiss       uint64
	poolHit, poolMiss       uint64
	poolEvict               uint64
	gcCycles, allocBytes    uint64
}

func readCounters(st *relation.Store) counters {
	var c counters
	c.compileHit, c.compileMiss = engine.CompileCacheStats()
	c.rcHit, c.rcMiss, c.rcCarry = resultcache.Stats()
	c.rcEntries = resultcache.Len()
	c.filterHit, c.filterMiss = filter.CacheStats()
	c.scoreHit, c.scoreMiss = rank.ScoreCacheStats()
	c.permHit, c.permMiss = rank.PermCacheStats()
	if st != nil {
		p := st.Stats().Pool
		c.poolHit, c.poolMiss, c.poolEvict = p.Hits, p.Misses, p.Evictions
	}
	rt := []metrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}, {Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(rt)
	c.gcCycles, c.allocBytes = rt[0].Value.Uint64(), rt[1].Value.Uint64()
	return c
}

// replayRun is one replay's outcome over its measured prefix of timed
// ops: per-op root times, counter readings at the prefix boundaries,
// store accounting, and the ops whose answers failed a check.
type replayRun struct {
	roots      []time.Duration // measured ops' root times, by op order
	rootClass  []Class
	c0, c1     counters
	reads      int // reads in the prefix
	inserts    int
	walBytes   int64 // WAL growth over prefix inserts that did not checkpoint
	walRows    int
	ckpts      int
	segBytes   int64
	tableRows  int
	refChecked int
	checked    int // ops replayed and checked
	wireBytes  int
	wireRows   int
	failed     map[int]error
}

type replayer struct {
	t        *tables
	tr       *Tracer
	parsed   map[string]*psql.Query
	measured bool
	// wireBytes and wireRows total the measured reads' encoded answers.
	wireBytes, wireRows int
}

// checkEvery is the stride of reads the replay executes and checks
// after the measured prefix; every insert and every read up to the
// prefix's end is executed and checked. Replaying every read would cost
// as long as the timed window itself.
const checkEvery = 4

// replay runs ops [0, n) of the sequence over freshly built tables,
// measuring ops [warm, warm+prefix) (tracing them when tr is non-nil).
// It checks each executed op's answer against want (when it has one)
// and every refEvery-th executed read against the reference evaluator.
func replay(w Workload, rows int, seed int64, tmpRoot string, n, prefix int, tr *Tracer, want []answer) (*replayRun, error) {
	t, err := buildTables(w, rows, tmpRoot)
	if err != nil {
		return nil, err
	}
	defer t.close()
	r := &replayer{t: t, parsed: make(map[string]*psql.Query)}
	gen := NewGen(w.Hot, seed)
	warm := gen.Warmup()
	res := &replayRun{failed: make(map[int]error)}
	reads, beyond := 0, 0
	for i := 0; i < n; i++ {
		op := gen.Next()
		measured := i >= warm && i < warm+prefix
		if i >= warm+prefix && op.IsRead() {
			// Reads leave the table unchanged, so skipping one changes
			// what later reads cost but never what they answer.
			beyond++
			if beyond%checkEvery != 0 {
				continue
			}
		}
		res.checked++
		if i == warm {
			res.c0 = readCounters(t.store)
		}
		r.tr, r.measured = nil, measured
		if measured {
			r.tr = tr
		}
		var before relation.StoreStats
		if measured && op.Class == ClassInsert && t.store != nil {
			before = t.store.Stats()
		}
		ro, err := r.exec(op)
		if measured {
			res.roots = append(res.roots, ro.root)
			res.rootClass = append(res.rootClass, op.Class)
			if op.IsRead() {
				res.reads++
			} else {
				res.inserts++
				if t.store != nil {
					res.storeInsert(before, t.store.Stats())
				}
			}
		}
		if prefix > 0 && i == warm+prefix-1 {
			res.c1 = readCounters(t.store)
			res.wireBytes, res.wireRows = r.wireBytes, r.wireRows
			res.tableRows = t.live.Len()
			if t.store != nil {
				res.segBytes = t.store.Stats().SegmentBytes()
			}
		}
		if err == nil && op.ID < len(want) && ro.ans != want[op.ID] {
			err = wrongf("wire answer (%d rows, hash %x) differs from replay (%d rows, hash %x)",
				want[op.ID].n, want[op.ID].h, ro.ans.n, ro.ans.h)
		}
		if err == nil && op.IsRead() {
			if reads%refEvery == 0 && res.refChecked < refMax {
				res.refChecked++
				err = referenceCheck(op, ro.q, ro.snap, ro.oids)
			}
			reads++
		}
		if err != nil {
			res.failed[op.ID] = fmt.Errorf("op %d (%s): %w", op.ID, op.Class, err)
		}
	}
	return res, nil
}

// storeInsert accounts one insert's WAL growth, or the checkpoint it
// triggered (a shard's WAL tail folded into a new epoch).
func (res *replayRun) storeInsert(before, after relation.StoreStats) {
	var tb, ta int
	for _, s := range before.Shards {
		tb += s.TailRows
	}
	for _, s := range after.Shards {
		ta += s.TailRows
	}
	if ta < tb {
		res.ckpts++
		return
	}
	res.walBytes += after.WALBytes() - before.WALBytes()
	res.walRows++
}

// opOut is one replayed op's answer and what the reference check needs.
type opOut struct {
	ans  answer
	oids []int64
	root time.Duration
	q    *psql.Query
	snap relation.Table
}

func (r *replayer) span(op, parent int, name string, f func() error) error {
	h := r.tr.Begin(op, parent, name)
	err := f()
	r.tr.End(h)
	return err
}

func (r *replayer) exec(op Op) (opOut, error) {
	var out opOut
	start := time.Now()
	root := r.tr.Begin(op.ID, 0, "op."+op.Class.String())
	err := r.execOp(op, root, &out)
	r.tr.End(root)
	out.root = time.Since(start)
	if err == nil && op.IsRead() {
		r.planProbe(op, out)
	}
	return out, err
}

func (r *replayer) execOp(op Op, root int, out *opOut) error {
	if op.Class == ClassInsert {
		return r.span(op.ID, root, "relation.insert", func() error {
			var err error
			switch t := r.t.live.(type) {
			case *relation.Relation:
				err = t.Insert(op.Row)
			case *relation.Sharded:
				err = t.Insert(op.Row)
			}
			out.ans = answer{n: r.t.live.Len()}
			return err
		})
	}
	q, ok := r.parsed[op.Stmt]
	if !ok {
		if err := r.span(op.ID, root, "psql.parse", func() (err error) {
			q, err = psql.Parse(op.Stmt)
			return err
		}); err != nil {
			return err
		}
		if len(r.parsed) >= parseCacheCap {
			clear(r.parsed)
		}
		r.parsed[op.Stmt] = q
	}
	out.q = q
	r.span(op.ID, root, "relation.snapshot", func() error {
		switch t := r.t.live.(type) {
		case *relation.Relation:
			out.snap = t.Snapshot()
		case *relation.Sharded:
			out.snap = t.Snapshot()
		}
		return nil
	})
	// The server gives every statement its own cancellable context.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	exec := r.execSharded
	if _, flat := out.snap.(*relation.Relation); flat {
		exec = r.execFlat
	}
	h := r.tr.Begin(op.ID, root, "psql.exec")
	rows, err := exec(ctx, op, q, out.snap, h)
	r.tr.End(h)
	if err != nil {
		return err
	}
	var payload []byte
	if err := r.span(op.ID, root, "wire.encode", func() (err error) {
		payload, err = wire.EncodeRowBatch(rows)
		return err
	}); err != nil {
		return err
	}
	var dec []relation.Row
	if err := r.span(op.ID, root, "wire.decode", func() (err error) {
		dec, err = wire.DecodeRowBatch(payload, 1)
		return err
	}); err != nil {
		return err
	}
	if r.measured {
		r.wireBytes += len(payload)
		r.wireRows += len(dec)
	}
	oids, err := rowOIDs(dec)
	out.oids, out.ans = oids, oidAnswer(oids)
	return err
}

// execFlat mirrors psql's flat pipeline for the benchmark's shapes. A
// stream statement (a single scored preference with TOP) is not
// progressive: psql.ExecStream replays it through the batch executor
// with a background context, so it ranks like topk.
func (r *replayer) execFlat(ctx context.Context, op Op, q *psql.Query, snap relation.Table, parent int) ([]relation.Row, error) {
	base := snap.(*relation.Relation)
	var idx []int
	if q.Where != nil {
		r.span(op.ID, parent, "filter.compile", func() error {
			idx = filter.CompileCached(q.Where, base).Indices()
			return nil
		})
	}
	var err error
	switch op.Class {
	case ClassTopK, ClassStream:
		if op.Class == ClassStream {
			ctx = context.Background()
		}
		built, berr := q.Preferring.Build()
		if berr != nil {
			return nil, berr
		}
		err = r.span(op.ID, parent, "rank.topk", func() error {
			res, err := rank.TopKOnCtx(ctx, built.(pref.Scorer), base, q.Top, idx)
			idx = make([]int, len(res))
			for i, x := range res {
				idx[i] = x.Row
			}
			return err
		})
	case ClassBMO:
		built, berr := q.Preferring.Build()
		if berr != nil {
			return nil, berr
		}
		err = r.span(op.ID, parent, "engine.bmo", func() (err error) {
			idx, err = engine.EvalIndicesCtxKeyed(ctx, algebra.Simplify(built), base, engine.Auto, idx, q.Where)
			return err
		})
	}
	if err != nil {
		return nil, err
	}
	return r.materialize(op, q, parent, func() *relation.Relation { return base.Pick(idx) })
}

// execSharded mirrors psql's sharded pipeline for the benchmark's
// shapes: the hardened ctx route the server's ExecCtx takes, and for a
// stream statement the legacy route ExecStream's batch replay takes
// (its background context leaves the pipeline unhardened).
func (r *replayer) execSharded(ctx context.Context, op Op, q *psql.Query, snap relation.Table, parent int) ([]relation.Row, error) {
	s := snap.(*relation.Sharded)
	sets := make(engine.ShardSets, s.NumShards())
	if q.Where != nil {
		r.span(op.ID, parent, "filter.compile", func() error {
			for i := range sets {
				sets[i] = filter.CompileCached(q.Where, s.Shard(i)).Indices()
			}
			return nil
		})
	}
	var gids []int
	var err error
	switch op.Class {
	case ClassTopK, ClassStream:
		built, berr := q.Preferring.Build()
		if berr != nil {
			return nil, berr
		}
		err = r.span(op.ID, parent, "rank.topk", func() error {
			var res []rank.Result
			var err error
			if op.Class == ClassStream {
				res = rank.TopKShardedOn(built.(pref.Scorer), s, q.Top, sets)
			} else {
				res, _, err = rank.TopKShardedCtx(ctx, built.(pref.Scorer), s, q.Top, sets, engine.Robust{})
			}
			gids = make([]int, len(res))
			for i, x := range res {
				gids[i] = x.Row
			}
			return err
		})
	case ClassBMO:
		built, berr := q.Preferring.Build()
		if berr != nil {
			return nil, berr
		}
		err = r.span(op.ID, parent, "engine.bmo", func() (err error) {
			sets, _, err = engine.BMOShardedOnCtxKeyed(ctx, algebra.Simplify(built), s, engine.Auto, sets, q.Where, engine.Robust{})
			return err
		})
		if err == nil {
			gids = sets.GlobalIDs(s)
		}
	case ClassSelect:
		gids = sets.GlobalIDs(s)
	}
	if err != nil {
		return nil, err
	}
	return r.materialize(op, q, parent, func() *relation.Relation { return s.Pick(gids) })
}

// materialize picks the answer rows and projects them to the SELECT
// list, as the executor's finishRows does.
func (r *replayer) materialize(op Op, q *psql.Query, parent int, pick func() *relation.Relation) ([]relation.Row, error) {
	var rows []relation.Row
	err := r.span(op.ID, parent, "relation.materialize", func() error {
		out, err := pick().Project(q.Select)
		if err != nil {
			return err
		}
		rows = out.Rows()
		return nil
	})
	return rows, err
}

// planProbe times the planner on the op's pinned snapshot outside the
// op's root span. The server's hardened sharded route does not call
// engine.PlanSharded (per-shard algorithm choice happens inside the
// fan-out), so the planner's cost is measured beside the route rather
// than inside it.
func (r *replayer) planProbe(op Op, out opOut) {
	if r.tr == nil || op.Class != ClassBMO {
		return
	}
	built, err := out.q.Preferring.Build()
	if err != nil {
		return
	}
	p := algebra.Simplify(built)
	h := r.tr.Begin(op.ID, 0, "engine.plan")
	switch s := out.snap.(type) {
	case *relation.Sharded:
		engine.PlanSharded(p, s, engine.Env{})
	case *relation.Relation:
		engine.PlanFor(p, s)
	}
	r.tr.End(h)
}
