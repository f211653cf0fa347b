package main

import (
	"runtime/metrics"
	"time"

	"repro/internal/relation"
	"repro/internal/server"
)

// wireRun is what one closed-loop session observed: per-class
// latencies of the timed ops, the host probe's samples over the same
// window, every op's answer (warm-up included) for the replay to check,
// and the failures it saw itself.
type wireRun struct {
	lat      [numClasses][]float64 // ms, send to last row frame / ack
	ttfr     []float64             // ms, stream send to first row
	probe    []float64             // ms, host probe samples
	opLat    []float64             // ms, by op id
	answers  []answer              // by op id (ops arrive in id order)
	failed   map[int]error
	warm     int
	timed    int
	window   time.Duration
	heapPeak uint64
	before   server.Metrics
	after    server.Metrics
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// wireOp sends one op and waits for its answer. ttfr is set for
// streams.
func wireOp(c *server.Client, op Op) (a answer, ttfr time.Duration, err error) {
	start := time.Now()
	switch op.Class {
	case ClassInsert:
		n, err := c.Insert(tableName, op.Row)
		return answer{n: n}, 0, err
	case ClassStream:
		var oids []int64
		var bad error
		_, _, err := c.Stream(op.Stmt, func(row relation.Row) bool {
			if len(oids) == 0 {
				ttfr = time.Since(start)
			}
			v, ok := row[0].(int64)
			if !ok {
				bad = wrongf("oid %v is %T", row[0], row[0])
				return false
			}
			oids = append(oids, v)
			return true
		})
		if err == nil {
			err = bad
		}
		return oidAnswer(oids), ttfr, err
	default:
		rs, err := c.Query(op.Stmt)
		if err != nil {
			return answer{}, 0, err
		}
		if len(rs.Cols) != 1 {
			return answer{}, 0, wrongf("%d columns, want 1 (oid)", len(rs.Cols))
		}
		oids, err := rowOIDs(rs.Rows())
		return oidAnswer(oids), 0, err
	}
}

// warmup runs the generator's warm-up ops over the session.
func (r *wireRun) warmup(c *server.Client, gen *Gen) {
	r.failed = make(map[int]error)
	for i := 0; i < gen.Warmup(); i++ {
		r.do(c, gen.Next())
	}
	r.warm = len(r.answers)
}

func (r *wireRun) do(c *server.Client, op Op) (time.Duration, time.Duration) {
	start := time.Now()
	a, ttfr, err := wireOp(c, op)
	d := time.Since(start)
	r.answers = append(r.answers, a)
	r.opLat = append(r.opLat, ms(d))
	if err != nil {
		r.failed[op.ID] = err
	}
	return d, ttfr
}

// timedLoop sends ops back to back, each after the previous answer
// (closed loop, one session), until the window has elapsed. Between
// ops it samples the host probe every probeEvery.
func (r *wireRun) timedLoop(s *serving, gen *Gen, window time.Duration, hp *hostProbe) error {
	heap := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	r.before = s.srv.Metrics()
	start := time.Now()
	var probed time.Time
	for time.Since(start) < window {
		if time.Since(probed) >= probeEvery {
			probed = time.Now()
			d, err := hp.sample()
			if err != nil {
				return err
			}
			r.probe = append(r.probe, ms(d))
		}
		op := gen.Next()
		d, ttfr := r.do(s.client, op)
		r.lat[op.Class] = append(r.lat[op.Class], ms(d))
		if op.Class == ClassStream {
			r.ttfr = append(r.ttfr, ms(ttfr))
		}
		r.timed++
		metrics.Read(heap)
		r.heapPeak = max(r.heapPeak, heap[0].Value.Uint64())
	}
	r.window = time.Since(start)
	r.after = s.srv.Metrics()
	return nil
}
