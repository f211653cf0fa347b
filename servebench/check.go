package main

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"slices"

	"repro/internal/algebra"
	"repro/internal/engine"
	"repro/internal/pref"
	"repro/internal/psql"
	"repro/internal/rank"
	"repro/internal/relation"
)

// answer is the comparable form of one op's outcome: for a read the
// size and hash of its oid multiset, for an insert the acknowledged
// table length.
type answer struct {
	n int
	h uint64
}

// oidAnswer hashes the oids in sorted order, so answers compare as
// multisets whatever order rows arrived in.
func oidAnswer(oids []int64) answer {
	s := slices.Clone(oids)
	slices.Sort(s)
	f := fnv.New64a()
	var b [8]byte
	for _, v := range s {
		for i := range b {
			b[i] = byte(v >> (8 * i))
		}
		f.Write(b[:])
	}
	return answer{n: len(s), h: f.Sum64()}
}

// rowOIDs extracts column 0 (oid) of result rows.
func rowOIDs(rows []relation.Row) ([]int64, error) {
	oids := make([]int64, len(rows))
	for i, row := range rows {
		v, ok := row[0].(int64)
		if !ok {
			return nil, wrongf("oid %v is %T, not int64", row[0], row[0])
		}
		oids[i] = v
	}
	return oids, nil
}

// refEvery is the stride of reads the replay re-evaluates with the
// reference evaluator; refMax caps how many per run, since the
// interpreted evaluator is slow by design.
const (
	refEvery = 50
	refMax   = 8
)

// flatten returns the pinned table as one flat relation.
func flatten(snap relation.Table) *relation.Relation {
	if s, ok := snap.(*relation.Sharded); ok {
		return s.Flatten()
	}
	return snap.(*relation.Relation)
}

// referenceCheck re-evaluates a read on the flattened pinned snapshot
// without the engine's caches, compiled kernels or shard merge — plain
// Go selection, interpreted BNL for BMO, flat rank.TopK for the ranked
// classes — and reports whether the served oids agree.
func referenceCheck(op Op, q *psql.Query, snap relation.Table, got []int64) error {
	flat := flatten(snap)
	oidAt := func(r *relation.Relation, i int) int64 { return r.Row(i)[0].(int64) }
	col := func(name string) int {
		i, _ := flat.Schema().Index(name)
		return i
	}
	oidsOf := func(r *relation.Relation, idx []int) []int64 {
		out := make([]int64, len(idx))
		for k, i := range idx {
			out[k] = oidAt(r, i)
		}
		return out
	}
	switch op.Class {
	case ClassSelect:
		price, year := col("price"), col("year")
		var want []int64
		for i := 0; i < flat.Len(); i++ {
			if r := flat.Row(i); r[price].(int64) <= op.P && r[year].(int64) >= op.Y {
				want = append(want, r[0].(int64))
			}
		}
		return sameOIDs(got, want)
	case ClassBMO:
		built, err := q.Preferring.Build()
		if err != nil {
			return err
		}
		return sameOIDs(got, oidsOf(flat, engine.BMOIndicesMode(algebra.Simplify(built), flat, engine.BNL, engine.EvalInterpreted)))
	case ClassTopK, ClassStream:
		built, err := q.Preferring.Build()
		if err != nil {
			return err
		}
		sc := built.(pref.Scorer)
		var want []float64
		for _, r := range rank.TopK(sc, flat, q.Top) {
			want = append(want, sc.ScoreOf(flat.Tuple(r.Row)))
		}
		// Ties may be broken either way: compare the served rows'
		// scores with the reference's.
		byOID := make(map[int64]int, flat.Len())
		for i := 0; i < flat.Len(); i++ {
			byOID[oidAt(flat, i)] = i
		}
		var have []float64
		for _, v := range got {
			i, ok := byOID[v]
			if !ok {
				return wrongf("topk row oid %d not in table", v)
			}
			have = append(have, sc.ScoreOf(flat.Tuple(i)))
		}
		slices.Sort(have)
		slices.Sort(want)
		if !slices.EqualFunc(have, want, func(a, b float64) bool { return a == b || math.Abs(a-b) <= 1e-9*math.Abs(b) }) {
			return wrongf("topk scores %v, reference %v", have, want)
		}
		return nil
	}
	return nil
}

func sameOIDs(got, want []int64) error {
	if oidAnswer(got) != oidAnswer(want) {
		return wrongf("served %d oids, reference %d (multisets differ)", len(got), len(want))
	}
	return nil
}

// errWrongAnswer marks an op whose answer disagreed with its check.
var errWrongAnswer = errors.New("wrong answer")

func wrongf(format string, args ...any) error {
	return fmt.Errorf("%w: "+format, append([]any{errWrongAnswer}, args...)...)
}
