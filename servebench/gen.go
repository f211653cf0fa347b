package main

import (
	"fmt"
	"math/rand"

	"repro/internal/relation"
	"repro/internal/workload"
)

// Class is a statement class. Each class has its own latency
// percentiles: classes differ in cost by orders of magnitude, and a
// percentile over a pooled mix measures the mix, not the system.
type Class int

const (
	ClassBMO Class = iota
	ClassTopK
	ClassStream
	ClassSelect
	ClassInsert
	numClasses
)

var classNames = [numClasses]string{"bmo", "topk", "stream", "select", "insert"}

func (c Class) String() string { return classNames[c] }

// mix is the number of ops of each class in every block of mixBlock
// consecutive ops (35/25/15/15/10). Shuffling whole blocks keeps every
// prefix of the sequence close to the declared shares, which a per-op
// coin flip would not.
var mix = [numClasses]int{7, 5, 3, 3, 2}

const mixBlock = 20

// hotPool is the number of constant sets each read class draws from on
// a hot workload; zipfS skews the draw so a few statements dominate.
const (
	hotPool     = 8
	zipfS       = 1.2
	hotPoolSeed = 1
)

// Op is one generated operation. Read ops carry the statement text sent
// over the wire plus its constants (for the reference evaluation);
// inserts carry the row.
type Op struct {
	ID    int
	Class Class
	Stmt  string
	Row   relation.Row
	// A is the price target (bmo, topk); P and Y are the select bounds.
	A, P, Y int64
}

// IsRead reports whether the op is a query (every class but insert).
func (o Op) IsRead() bool { return o.Class != ClassInsert }

// Encode renders the op as one canonical line: the bytes the generator
// tests compare.
func (o Op) Encode() string {
	if o.Class == ClassInsert {
		return fmt.Sprintf("%d insert %v\n", o.ID, o.Row)
	}
	return fmt.Sprintf("%d %s %s\n", o.ID, o.Class, o.Stmt)
}

// Gen produces a workload's op sequence from a seed: the same seed and
// workload temperature give the same sequence, op for op. Independent
// random streams drive the class schedule, the statement constants and
// the inserted rows, so changing one aspect of the generator leaves the
// others' draws alone.
type Gen struct {
	hot      bool
	sched    *rand.Rand
	consts   *rand.Rand
	rows     *rand.Rand
	zipf     *rand.Rand
	z        *rand.Zipf
	block    []Class
	next     int
	inserted int
	pool     [numClasses][hotPool]Op
	used     map[string]bool
	warm     []Op
}

// insertOIDBase keeps inserted oids clear of the generated table's
// 1..rows range.
const insertOIDBase = 10_000_000

// NewGen returns the generator for a hot (Zipf over a pool of hotPool
// constant sets per class) or cold (fresh constants on every read)
// workload.
func NewGen(hot bool, seed int64) *Gen {
	g := &Gen{
		hot:    hot,
		sched:  rand.New(rand.NewSource(seed*4 + 1)),
		consts: rand.New(rand.NewSource(seed*4 + 2)),
		rows:   rand.New(rand.NewSource(seed*4 + 3)),
		zipf:   rand.New(rand.NewSource(seed*4 + 4)),
		used:   make(map[string]bool),
	}
	if hot {
		// The hot set is part of the workload, like the table: its
		// statements' answer sizes set what a hit costs, so a per-seed
		// pool made each class's median a property of the draw. The seed
		// still drives the Zipf draws, the schedule and the inserted rows.
		g.consts = rand.New(rand.NewSource(hotPoolSeed))
		g.z = rand.NewZipf(g.zipf, zipfS, 1, hotPool-1)
		for c := ClassBMO; c < ClassInsert; c++ {
			for k := range g.pool[c] {
				g.pool[c][k] = g.fresh(c)
				// Warm-up sends every pool statement once, so the timed
				// window starts with every cache holding the hot set.
				g.warm = append(g.warm, g.pool[c][k])
			}
		}
	}
	return g
}

// Warmup is the number of leading ops that run before the timed window.
func (g *Gen) Warmup() int {
	if g.hot {
		return len(g.warm)
	}
	return coldWarmup
}

// coldWarmup leading ops of a cold workload warm code paths, the page
// cache and the buffer pool but no statement cache.
const coldWarmup = 40

// Next returns the next op of the sequence.
func (g *Gen) Next() Op {
	id := g.next
	g.next++
	if id < len(g.warm) {
		op := g.warm[id]
		op.ID = id
		return op
	}
	if len(g.block) == 0 {
		for c, n := range mix {
			for i := 0; i < n; i++ {
				g.block = append(g.block, Class(c))
			}
		}
		g.sched.Shuffle(len(g.block), func(i, j int) { g.block[i], g.block[j] = g.block[j], g.block[i] })
	}
	c := g.block[0]
	g.block = g.block[1:]
	var op Op
	switch {
	case c == ClassInsert:
		op = Op{Class: ClassInsert, Row: g.carRow()}
	case g.hot:
		op = g.pool[c][g.z.Uint64()]
	default:
		op = g.fresh(c)
	}
	op.ID = id
	return op
}

// fresh draws a read op of class c whose statement text the generator
// has not produced before, so on a cold workload every statement with
// constants misses every statement-keyed cache.
func (g *Gen) fresh(c Class) Op {
	if c == ClassStream {
		return g.draw(c)
	}
	for {
		op := g.draw(c)
		if !g.used[op.Stmt] {
			g.used[op.Stmt] = true
			return op
		}
	}
}

// streamStmt is the stream class's statement. It has no constants, so
// on every workload the session parses it once. With TOP, a single
// scored preference takes psql.ExecStream's ranked batch route rather
// than the progressive evaluator (README.md says why no progressive
// statement is used).
const streamStmt = "SELECT oid FROM car PREFERRING HIGHEST(horsepower) TOP 20"

// draw picks constants for class c. The ranges keep answers small
// (tens of rows) so a statement's cost is evaluation, not shipping or
// paging in rows, and leave a cold run far more distinct statements
// than it sends (select, the narrowest, has 4000). BMO carries no
// WHERE: a hard selection's cache is keyed by table version, so after
// each insert a WHERE-scoped BMO would alternate between
// selection-cache hits and misses, and its median would flip between
// two costs.
func (g *Gen) draw(c Class) Op {
	r := g.consts
	op := Op{Class: c}
	switch c {
	case ClassBMO:
		op.A = 4000 + r.Int63n(36000)
		op.Stmt = fmt.Sprintf("SELECT oid FROM car PREFERRING price AROUND %d AND HIGHEST(horsepower)", op.A)
	case ClassTopK:
		op.A = 4000 + r.Int63n(36000)
		op.Stmt = fmt.Sprintf("SELECT oid FROM car PREFERRING RANK(price AROUND %d, HIGHEST(horsepower)) TOP 10", op.A)
	case ClassStream:
		op.Stmt = streamStmt
	case ClassSelect:
		op.P = 2000 + r.Int63n(2000)
		op.Y = 1998 + r.Int63n(2)
		op.Stmt = fmt.Sprintf("SELECT oid FROM car WHERE price <= %d AND year >= %d", op.P, op.Y)
	}
	return op
}

// carRow generates an inserted car with workload.Cars' value
// distributions and a fresh oid.
func (g *Gen) carRow() relation.Row {
	r := g.rows
	g.inserted++
	hp := 45 + r.Intn(256)
	year := 1990 + r.Intn(22)
	age := 2012 - year
	mileage := 5000*age + r.Intn(20000*age+1)
	price := 2500 + int((float64(hp)*180+float64(year-1990)*900-float64(mileage)/18)*(0.8+0.4*r.Float64()))
	if price < 500 {
		price = 500 + r.Intn(2000)
	}
	return relation.Row{
		int64(insertOIDBase + g.inserted),
		workload.CarMakes[r.Intn(len(workload.CarMakes))],
		workload.CarCategories[r.Intn(len(workload.CarCategories))],
		workload.Transmissions[r.Intn(len(workload.Transmissions))],
		workload.CarColors[r.Intn(len(workload.CarColors))],
		int64(hp),
		int64(price),
		int64(mileage),
		int64(year),
		int64(200 + r.Intn(price/10+1)),
	}
}
