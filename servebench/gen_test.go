package main

import (
	"bytes"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/wire"
)

func encodeOps(hot bool, seed int64, n int) string {
	g := NewGen(hot, seed)
	var b strings.Builder
	for i := 0; i < n; i++ {
		b.WriteString(g.Next().Encode())
	}
	return b.String()
}

func TestGenSameSeedSameSequence(t *testing.T) {
	for _, hot := range []bool{false, true} {
		a, b := encodeOps(hot, 7, 5000), encodeOps(hot, 7, 5000)
		if a != b {
			t.Errorf("hot=%v: seed 7 gave two different op sequences", hot)
		}
		if c := encodeOps(hot, 8, 5000); a == c {
			t.Errorf("hot=%v: seeds 7 and 8 gave the same op sequence", hot)
		}
	}
}

func TestGenMixShares(t *testing.T) {
	for _, hot := range []bool{false, true} {
		for _, n := range []int{2000, 10000} {
			g := NewGen(hot, 3)
			for i := 0; i < g.Warmup(); i++ {
				g.Next()
			}
			var count [numClasses]int
			for i := 0; i < n; i++ {
				count[g.Next().Class]++
			}
			for c := range count {
				got, want := float64(count[c])/float64(n), float64(mix[c])/mixBlock
				if d := got - want; d > 0.01 || d < -0.01 {
					t.Errorf("hot=%v n=%d: %s share %.4f, declared %.2f", hot, n, Class(c), got, want)
				}
			}
		}
	}
}

func TestGenColdStatementsNeverRepeat(t *testing.T) {
	g := NewGen(false, 5)
	seen := make(map[string]bool)
	for i := 0; i < 20000; i++ {
		op := g.Next()
		if op.Stmt == streamStmt || !op.IsRead() {
			continue // the stream statement has no constants
		}
		if seen[op.Stmt] {
			t.Fatalf("op %d repeats statement %q", op.ID, op.Stmt)
		}
		seen[op.Stmt] = true
	}
}

// recordingListener keeps a copy of every byte the server reads from
// its connections.
type recordingListener struct {
	net.Listener
	mu  sync.Mutex
	buf bytes.Buffer
}

func (l *recordingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &recordingConn{Conn: c, l: l}, nil
}

type recordingConn struct {
	net.Conn
	l *recordingListener
}

func (c *recordingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.l.mu.Lock()
	c.l.buf.Write(p[:n])
	c.l.mu.Unlock()
	return n, err
}

// TestServerReceivesOnlyGeneratedOps drives a small table through the
// wire session and checks that the frames the server read are exactly
// the generated ops, in order, then the session's quit.
func TestServerReceivesOnlyGeneratedOps(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			tb, err := buildTables(w, 2000, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			defer tb.close()
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			rec := &recordingListener{Listener: ln}
			s, err := serve(tb.live, rec)
			if err != nil {
				t.Fatal(err)
			}
			gen := NewGen(w.Hot, 9)
			wr := &wireRun{}
			wr.warmup(s.client, gen)
			hp, err := newHostProbe()
			if err != nil {
				t.Fatal(err)
			}
			err = wr.timedLoop(s, gen, 200*time.Millisecond, hp)
			if cerr := hp.close(); err == nil {
				err = cerr
			}
			if serr := s.stop(); err == nil {
				err = serr
			}
			if err != nil {
				t.Fatal(err)
			}
			if len(wr.probe) == 0 {
				t.Fatal("no host probe samples in the timed window")
			}
			if len(wr.failed) > 0 {
				t.Fatalf("%d ops failed: %v", len(wr.failed), wr.failed)
			}
			rec.mu.Lock()
			conn := wire.NewConn(struct {
				io.Reader
				io.Writer
			}{bytes.NewReader(rec.buf.Bytes()), io.Discard})
			rec.mu.Unlock()
			replayGen := NewGen(w.Hot, 9)
			for i := range wr.answers {
				op := replayGen.Next()
				typ, payload, err := conn.ReadFrame()
				if err != nil {
					t.Fatalf("op %d: %v", i, err)
				}
				switch typ {
				case wire.FrameQuery, wire.FrameStream:
					wantTyp := wire.FrameQuery
					if op.Class == ClassStream {
						wantTyp = wire.FrameStream
					}
					if typ != wantTyp || string(payload) != op.Stmt {
						t.Fatalf("op %d: server read %c %q, generated %s %q", i, typ, payload, op.Class, op.Stmt)
					}
				case wire.FrameInsert:
					table, row, err := wire.DecodeInsert(payload)
					if err != nil || op.Class != ClassInsert || table != tableName || (Op{Class: ClassInsert, Row: row}).Encode() != (Op{Class: ClassInsert, Row: op.Row}).Encode() {
						t.Fatalf("op %d: server read insert %v into %s (%v), generated %s", i, row, table, err, op.Encode())
					}
				default:
					t.Fatalf("op %d: server read frame %c, not a generated op", i, typ)
				}
			}
			if typ, _, err := conn.ReadFrame(); err != nil || typ != wire.FrameQuit {
				t.Fatalf("after the ops: frame %c (%v), want quit", typ, err)
			}
			if _, _, err := conn.ReadFrame(); err != io.EOF {
				t.Fatalf("bytes after quit: %v", err)
			}
		})
	}
}
