package main

import (
	"errors"
	"io"
	"net"
	"runtime"
	"sync"
	"time"
)

// hostProbe times a fixed unit of work that runs none of the program
// under test: a CPU and memory kernel plus round trips to an echo
// goroutine over loopback TCP, the two kinds of work a served
// statement does. On a shared host the speed of both drifts together
// with every op's latency (README.md, "Steadiness"); the end-to-end
// latencies are reported as multiples of the probe's median over the
// same timed window, which cancels that drift.
type hostProbe struct {
	ln    net.Listener
	conn  net.Conn
	done  chan struct{}
	bufs  [][]uint64 // one kernel working set per P
	frame []byte
}

const (
	// probeEvery is the interval between probe samples in the timed
	// window; a sample costs about 0.2 ms.
	probeEvery = 100 * time.Millisecond
	// probeWords is the kernel's working set, in 8-byte words (256 KiB).
	probeWords = 1 << 15
	// probeTrips is the number of echo round trips per sample.
	probeTrips = 5
)

func newHostProbe() (*hostProbe, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	p := &hostProbe{ln: ln, done: make(chan struct{}), frame: make([]byte, 32)}
	for range runtime.GOMAXPROCS(0) {
		p.bufs = append(p.bufs, make([]uint64, probeWords))
	}
	go p.echo()
	if p.conn, err = net.Dial("tcp", ln.Addr().String()); err != nil {
		p.close()
		return nil, err
	}
	return p, nil
}

// echo serves one connection, writing back what it reads.
func (p *hostProbe) echo() {
	defer close(p.done)
	c, err := p.ln.Accept()
	if err != nil {
		return
	}
	defer c.Close()
	io.Copy(c, c)
}

// sample runs the probe's work once and returns how long it took. The
// kernel runs on every P at once, as a sharded statement's fan-out
// does, so a slow core slows the probe as it slows the program.
func (p *hostProbe) sample() (time.Duration, error) {
	start := time.Now()
	var wg sync.WaitGroup
	for _, buf := range p.bufs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			kernel(buf)
		}()
	}
	wg.Wait()
	for range probeTrips {
		if _, err := p.conn.Write(p.frame); err != nil {
			return 0, err
		}
		if _, err := io.ReadFull(p.conn, p.frame); err != nil {
			return 0, err
		}
	}
	return time.Since(start), nil
}

// kernel fills buf with a xorshift sequence and sums a data-dependent
// gather over it; buf[0] keeps the sum so the work is not elided.
func kernel(buf []uint64) {
	x := uint64(88172645463325252)
	for i := range buf {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		buf[i] = x
	}
	var s uint64
	for i := range buf {
		s += buf[buf[i]&(probeWords-1)]
	}
	buf[0] = s
}

// close ends the echo connection and waits for the echo goroutine.
func (p *hostProbe) close() error {
	var err error
	if p.conn != nil {
		err = p.conn.Close()
	}
	if lerr := p.ln.Close(); err == nil && !errors.Is(lerr, net.ErrClosed) {
		err = lerr
	}
	<-p.done
	return err
}
