package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"syscall"
	"time"

	cedr "repro"
	"repro/internal/event"
	"repro/internal/stream"
	"repro/internal/temporal"
)

// env holds what every pass of one run shares.
type env struct {
	w     Workload
	seed  int64
	dir   string // scratch directory for the traced run's WAL files
	files int
}

func newEnv(w Workload, seed int64, dir string) *env {
	return &env{w: w, seed: seed, dir: dir}
}

func (e *env) tempPath() string {
	e.files++
	return filepath.Join(e.dir, fmt.Sprintf("pass-%d.wal", e.files))
}

// session is one fresh in-process system with the fleet query registered,
// ready to push.
type session struct {
	items    stream.Stream // what the pass pushes
	expected int           // alerts the oracle expects
	sys      *cedr.System
	q        *cedr.Query
}

// open builds a fresh system for in. With p non-nil the query's
// subscriber reports every output to p for latency; single-shard queries
// deliver synchronously inside Push.
func open(in Input, p *pacer) (*session, error) {
	s := &session{items: in.Items, expected: in.Expected, sys: cedr.New()}
	q, err := register(s.sys)
	if err != nil {
		s.sys.Close()
		return nil, err
	}
	if p != nil {
		q.Subscribe(p.observe)
	}
	s.q = q
	return s, nil
}

// check runs the oracle over a finished pass.
func (s *session) check() []error {
	return append(checkHealth(s.sys, s.q), checkAlerts(s.q, s.expected)...)
}

// liveHeap is HeapAlloc after a forced collection.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// ---------------------------------------------------------------------------
// Open-loop pacing

// pacer schedules an open-loop replay at a fixed rate and attributes each
// data output to the input that emitted it. The consistency monitor stamps
// an output's C.Start with the arrival time of the input being processed;
// first maps each arrival time to the earliest scheduled input carrying
// it, so the attribution never understates latency.
type pacer struct {
	epoch  time.Time
	period time.Duration
	warmup int                   // items before the paced window
	end    int                   // end of the paced window
	first  map[temporal.Time]int // arrival time -> paced index
	late   []bool                // paced index -> a straggler (Sync behind an earlier item's)
	t0     atomic.Int64          // due time of item 0, ns after epoch; 0 = not sampling

	lat          []int64 // output latency from due time, ns
	repair       []bool  // per output: emitted by a straggler, so by rollback and replay
	lag          []int64 // generator lateness per item, ns
	unattributed int

	// stall, when set, runs in the subscriber after each sampled output
	// (a test hook that models a slow subscriber).
	stall func(n int)
}

// newPacer schedules items[warmup:end] at rate; the items before and
// after that window are pushed unpaced and unsampled.
func newPacer(items stream.Stream, rate float64, warmup, end int) *pacer {
	p := &pacer{
		epoch:  time.Now(),
		period: time.Duration(float64(time.Second) / rate),
		first:  make(map[temporal.Time]int, end-warmup),
		late:   make([]bool, end-warmup),
		warmup: warmup,
		end:    end,
	}
	var high temporal.Time
	for i, e := range items[:end] {
		late := !e.IsCTI() && e.Sync() < high
		if !e.IsCTI() {
			high = max(high, e.Sync())
		}
		if i < warmup {
			continue
		}
		if _, ok := p.first[e.C.Start]; !ok {
			p.first[e.C.Start] = i - warmup
		}
		p.late[i-warmup] = late
	}
	return p
}

func (p *pacer) now() int64 { return int64(time.Since(p.epoch)) }

func (p *pacer) due(i int) int64 { return p.t0.Load() + int64(i)*int64(p.period) }

// observe records one subscriber-side output.
func (p *pacer) observe(e event.Event) {
	if e.IsCTI() {
		return
	}
	t0 := p.t0.Load()
	if t0 == 0 {
		return
	}
	idx, ok := p.first[e.C.Start]
	if !ok {
		p.unattributed++
		return
	}
	p.lat = append(p.lat, p.now()-(t0+int64(idx)*int64(p.period)))
	p.repair = append(p.repair, p.late[idx])
	if p.stall != nil {
		p.stall(len(p.lat))
	}
}

// waitUntil blocks until t (ns after epoch). It sleeps in nanosleep,
// which overshoots by tens of microseconds where a runtime timer
// overshoots by about a millisecond, then yields for the last stretch.
func (p *pacer) waitUntil(t int64) {
	const spin = 150 * time.Microsecond
	for {
		d := time.Duration(t - p.now())
		if d <= 0 {
			return
		}
		if d > spin {
			ts := syscall.NsecToTimespec(int64(d - spin))
			_ = syscall.Nanosleep(&ts, nil) // EINTR only shortens the sleep; the loop re-checks
			continue
		}
		runtime.Gosched()
	}
}

// replay pushes the warm-up items, then the paced window on the
// open-loop schedule, then the rest.
func (p *pacer) replay(s *session, c *counter) {
	for _, e := range s.items[:p.warmup] {
		s.sys.Push(e)
		c.op(nil)
	}
	items := s.items[p.warmup:p.end]
	p.t0.Store(p.now() + int64(time.Millisecond))
	for i, e := range items {
		due := p.due(i)
		p.waitUntil(due)
		p.lag = append(p.lag, p.now()-due)
		s.sys.Push(e)
		c.op(nil)
	}
	p.t0.Store(0)
	for _, e := range s.items[p.end:] {
		s.sys.Push(e)
		c.op(nil)
	}
}

// ---------------------------------------------------------------------------
// Phases

// passResult is one saturated pass.
type passResult struct {
	setup   time.Duration
	elapsed time.Duration // first push until the query holds every output
	items   int
	heap    uint64
}

// counter accumulates operations attempted and failed across a run.
type counter struct {
	attempted, failed int
	errs              []error
}

func (c *counter) op(err error) {
	c.attempted++
	if err != nil {
		c.failed++
		if len(c.errs) < 8 {
			c.errs = append(c.errs, err)
		}
	}
}

func (c *counter) checks(errs []error) {
	c.op(nil) // the oracle check itself
	c.failed += len(errs)
	for _, err := range errs {
		if len(c.errs) < 8 {
			c.errs = append(c.errs, err)
		}
	}
}

// start generates the input and opens a fresh system, returning the
// set-up time.
func (e *env) start(p func(Input) *pacer) (*session, *pacer, time.Duration, error) {
	runtime.GC() // every pass starts from the same heap
	t0 := time.Now()
	in := e.w.Generate(e.seed)
	var pc *pacer
	if p != nil {
		pc = p(in)
	}
	s, err := open(in, pc)
	if err != nil {
		return nil, nil, 0, err
	}
	return s, pc, time.Since(t0), nil
}

// saturated runs a pipelined pass of the whole stream as fast as possible
// on a fresh system.
func (e *env) saturated(c *counter) (passResult, error) {
	s, _, setup, err := e.start(nil)
	if err != nil {
		return passResult{}, err
	}
	defer s.sys.Close()
	n := len(s.items)
	start := time.Now()
	for _, ev := range s.items {
		s.sys.Push(ev)
		c.op(nil)
	}
	pushed := time.Since(start)
	// The input is the benchmark's, not the system's: drop it so the live
	// heap counts only what the system retains.
	s.items = nil
	heap := liveHeap()
	finStart := time.Now()
	s.sys.Finish()
	elapsed := pushed + time.Since(finStart)
	c.checks(s.check())
	return passResult{setup: setup, elapsed: elapsed, items: n, heap: heap}, nil
}

// paced runs an open-loop replay at the workload's fixed rate on a fresh
// system.
func (e *env) paced(c *counter, stall func(int)) (*pacer, time.Duration, error) {
	s, p, setup, err := e.start(func(in Input) *pacer {
		warmup := min(e.w.PacedWarmup, len(in.Items))
		end := len(in.Items)
		if e.w.PacedItems > 0 {
			end = min(warmup+e.w.PacedItems, end)
		}
		p := newPacer(in.Items, e.w.PacedRate, warmup, end)
		p.stall = stall
		return p
	})
	if err != nil {
		return nil, 0, err
	}
	defer s.sys.Close()
	p.replay(s, c)
	s.sys.Finish()
	c.checks(s.check())
	return p, setup, nil
}
