package main

import (
	"bufio"
	"context"
	"net"
	"os"
	"runtime"
	"strings"
	"time"

	"repro/internal/engine"
	"repro/internal/engine/resultcache"
	"repro/internal/filter"
	"repro/internal/psql"
	"repro/internal/rank"
	"repro/internal/relation"
	"repro/internal/server"
	"repro/internal/workload"
)

// Workload is one benchmark configuration: the table layout, and
// whether reads repeat a small hot set or always use fresh constants.
type Workload struct {
	Name   string
	Hot    bool
	Shards int  // 0 = one flat in-memory relation
	Paged  bool // import the sharded table into a disk store
	// Prefix is how many timed ops the traced run measures. It is fixed
	// per workload, not set by the wire run's op count, so the counters
	// read at its end repeat exactly for a given seed.
	Prefix int
}

// workloads are the benchmark's workloads; README.md gives the reason
// for each.
var workloads = []Workload{
	{Name: "serve-hot", Hot: true, Prefix: 3000},
	{Name: "scan-cold", Shards: 4, Prefix: 1000},
	{Name: "paged-cold", Shards: 4, Paged: true, Prefix: 400},
}

func findWorkload(name string) (Workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return Workload{}, false
}

const (
	tableRows = 50_000
	tableName = "car"
	// poolBytes is the paged workload's buffer pool: well under the
	// ~7 MiB of segments, so row reads miss and evict.
	poolBytes = 2 << 20
	// autoCheckpoint folds a shard's WAL tail into a new epoch every
	// this many inserted rows, so checkpoints complete during a run.
	autoCheckpoint = 8
)

// tables is one built catalog: the live table the server (or replay)
// reads and writes, and the store behind it on the paged workload.
type tables struct {
	live  relation.Table
	store *relation.Store
	dir   string
}

// tableSeed generates the car table. The table is the same for every
// run; --seed varies the op sequence and the inserted rows. Which rows
// win a constant-free statement (stream's TOP 20), and so which pages
// its answer touches on the disk tier, is a property of the table: a
// per-seed table made that class's median a property of the draw.
const tableSeed = 1

// buildTables generates the car table and lays it out as the workload
// asks. A paged store lives in a fresh directory under tmpRoot, removed
// by close.
func buildTables(w Workload, rows int, tmpRoot string) (*tables, error) {
	car := workload.Cars(rows, tableSeed)
	if w.Shards == 0 {
		return &tables{live: car}, nil
	}
	sh, err := relation.ShardRelation(car, w.Shards, relation.ByHash("oid"))
	if err != nil {
		return nil, err
	}
	if !w.Paged {
		return &tables{live: sh}, nil
	}
	if err := os.MkdirAll(tmpRoot, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(tmpRoot, "store-")
	if err != nil {
		return nil, err
	}
	// SyncWAL stays off: appends reach the OS cache, not the device, on
	// both sides of any comparison.
	st, err := relation.OpenStore(dir, relation.StoreOptions{PoolBytes: poolBytes, AutoCheckpoint: autoCheckpoint})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	live, err := st.ImportTable(sh)
	if err != nil {
		st.Close()
		os.RemoveAll(dir)
		return nil, err
	}
	return &tables{live: live, store: st, dir: dir}, nil
}

// close releases the tables' cache entries, closes and removes the
// store, and resets the process-wide caches so the next build starts
// as cold as the first.
func (t *tables) close() error {
	switch l := t.live.(type) {
	case *relation.Relation:
		engine.EvictRelation(l)
	case *relation.Sharded:
		engine.EvictSharded(l)
	}
	var err error
	if t.store != nil {
		err = t.store.Close()
		if rerr := os.RemoveAll(t.dir); err == nil {
			err = rerr
		}
	}
	resultcache.Reset()
	engine.ResetCompileCache()
	engine.ResetStreamOrderCache()
	filter.ResetCache()
	rank.ResetScoreCache()
	rank.ResetPermCache()
	t.live = nil
	runtime.GC()
	return err
}

// serving is an in-process server on loopback with one client session.
type serving struct {
	srv    *server.Server
	client *server.Client
	served chan error
}

func startServer(live relation.Table) (*serving, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	return serve(live, ln)
}

// serve serves the table on ln and dials one session to it.
func serve(live relation.Table, ln net.Listener) (*serving, error) {
	srv := server.New(psql.Catalog{tableName: live}, server.Config{})
	s := &serving{srv: srv, served: make(chan error, 1)}
	go func() { s.served <- srv.Serve(ln) }()
	var err error
	if s.client, err = server.Dial(ln.Addr().String()); err != nil {
		s.stop()
		return nil, err
	}
	return s, nil
}

// shutdownBudget bounds the drain; the session is closed before it
// starts, so the drain has nothing to wait for.
const shutdownBudget = 5 * time.Second

// stop closes the client session, then drains the server under a
// deadline and waits for its accept loop to exit.
func (s *serving) stop() error {
	var err error
	if s.client != nil {
		err = s.client.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), shutdownBudget)
	defer cancel()
	if serr := s.srv.Shutdown(ctx); err == nil {
		err = serr
	}
	if serr := <-s.served; err == nil {
		err = serr
	}
	return err
}

// Host identifies the machine and settings a capture was taken on, so
// only captures from like hosts are compared.
type Host struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go"`
	AVX2       bool   `json:"avx2"`
	Seed       int64  `json:"seed"`
	TableSeed  int64  `json:"table_seed"`
	Workload   string `json:"workload"`
	Rows       int    `json:"rows"`
	Shards     int    `json:"shards"`
	PoolBytes  int64  `json:"pool_bytes"`
	SyncWAL    bool   `json:"sync_wal"`
	Seconds    int    `json:"seconds"`
}

func hostRecord(w Workload, seed int64, rows, seconds int) Host {
	h := Host{
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		AVX2:       engine.AVX2Enabled(),
		Seed:       seed,
		TableSeed:  tableSeed,
		Workload:   w.Name,
		Rows:       rows,
		Shards:     w.Shards,
		Seconds:    seconds,
	}
	if w.Paged {
		h.PoolBytes = poolBytes
	}
	return h
}

// cpuModel reads the CPU model name from /proc/cpuinfo ("unknown"
// where that file does not exist).
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
