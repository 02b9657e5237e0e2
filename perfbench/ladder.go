package main

import (
	"fmt"
	"io"
	"net"
	"os"
	"runtime"
	"sort"
	"sync/atomic"
	"time"

	cedr "repro"
	"repro/internal/consistency"
	"repro/internal/engine"
	"repro/internal/server"
	"repro/internal/stream"
	"repro/internal/wal"
)

// The traced run: a cumulative ladder of layers over one workload's input.
// Each rung adds one layer on top of the rung below, and its cost is its
// difference from that rung, so a regression names the layer it came
// from. Spans are recorded only from this package, around calls into each
// module's public functions; nothing inside the program is instrumented.

// rungRow is one line of the delta table.
type rungRow struct {
	name   string
	ns     float64 // ns per input item
	allocs float64 // heap allocations per input item
}

// measure times f and counts its heap allocations, after a collection so
// every rung starts from the same heap.
func measure(f func()) (time.Duration, uint64) {
	var a, b runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&a)
	t := time.Now()
	f()
	d := time.Since(t)
	runtime.ReadMemStats(&b)
	return d, b.Mallocs - a.Mallocs
}

// ladderResult carries the per-layer metrics and what the report prints.
type ladderResult struct {
	metrics map[string]float64
	rows    []rungRow
	rungs   []string
	tracers []*Tracer
}

// ladder runs every rung over the workload's stream, one pass each, and
// returns the per-layer metrics, the delta table and the spans.
func (e *env) ladder(c *counter) (*ladderResult, error) {
	in := e.w.Generate(e.seed)
	items := in.Items
	n := float64(len(items))
	res := &ladderResult{metrics: map[string]float64{}}
	m := res.metrics
	row := func(name string, d time.Duration, allocs uint64) {
		res.rows = append(res.rows, rungRow{name: name, ns: float64(d.Nanoseconds()) / n, allocs: float64(allocs) / n})
	}
	addTracer := func(name string, tr *Tracer) {
		res.rungs = append(res.rungs, name)
		res.tracers = append(res.tracers, tr)
	}

	// Rung 1, inc: the pattern stage alone, driven over the Sync-sorted
	// data events with the monitor's fast-path calls.
	p, err := compile()
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	tr.spans = make([]Span, 0, 2*len(in.Source))
	op := wrapTimed(p.Stages[0], tr)
	peak := 0
	d, allocs := measure(func() {
		for i, ev := range in.Source {
			tr.SetArrival(i)
			op.Advance(ev.Sync())
			op.Process(0, ev)
			if s := op.StateSize(); s > peak {
				peak = s
			}
		}
	})
	st := tr.stats()
	events := float64(len(in.Source))
	m["inc.ns_per_event"] = float64(st.total[spanIncAdvance]+st.total[spanIncProcess]) / events
	m["inc.advance_ns_per_call"] = perCall(st, spanIncAdvance)
	m["inc.process_ns_per_call"] = perCall(st, spanIncProcess)
	m["inc.state_items_peak"] = float64(peak)
	m["inc.allocs_per_event"] = float64(allocs) / events
	row("inc", d, allocs)
	addTracer("inc", tr)

	// Rung 2, consistency: a monitor over the same stage (wrapped, so its
	// inc calls are child spans), fed the delivered stream.
	if p, err = compile(); err != nil {
		return nil, err
	}
	tr = newTracer()
	tr.spans = make([]Span, 0, 4*len(items))
	mon := consistency.NewMonitor(wrapTimed(p.Stages[0], tr), p.Spec, p.MonitorOpts...)
	d, allocs = measure(func() {
		for i, ev := range items {
			tr.SetArrival(i)
			s := tr.Begin(spanMonitorPush)
			mon.Push(0, ev)
			tr.End(s)
		}
	})
	mon.Finish()
	st = tr.stats()
	met := mon.Metrics()
	m["consistency.ns_per_event"] = float64(st.total[spanMonitorPush]) / n
	m["consistency.self_ns_per_event"] = float64(st.self(spanMonitorPush)) / n
	m["consistency.allocs_per_event"] = float64(allocs) / n
	m["consistency.replays_per_event"] = ratio(met.Replays, met.InputEvents)
	m["consistency.compensations_per_replay"] = ratio(met.Compensations, met.Replays)
	m["consistency.max_state"] = float64(met.MaxState)
	row("consistency", d, allocs)
	addTracer("consistency", tr)
	monitorNs := m["consistency.ns_per_event"]

	// Rung 3, engine: the query as an engine chain, stage 0 wrapped as
	// above.
	tr = newTracer()
	tr.spans = make([]Span, 0, 4*len(items))
	eng := engine.New()
	regStart := time.Now()
	if p, err = compile(); err != nil {
		return nil, err
	}
	p.Stages[0] = wrapTimed(p.Stages[0], tr)
	q := eng.Register(p)
	m["plan.register_ms_per_query"] = float64(time.Since(regStart).Nanoseconds()) / 1e6
	d, allocs = measure(func() {
		for i, ev := range items {
			tr.SetArrival(i)
			s := tr.Begin(spanEnginePush)
			eng.Push(ev)
			tr.End(s)
		}
	})
	tracedTotal := d
	eng.Finish()
	st = tr.stats()
	m["engine.ns_per_event"] = float64(st.total[spanEnginePush])/n - monitorNs
	m["engine.allocs_per_event"] = float64(allocs) / n
	row("engine", d, allocs)
	addTracer("engine", tr)
	if err := q.Err(); err != nil {
		c.op(err)
	}

	// The same configuration through the facade, untraced: the base the
	// durable rung is measured against, and the tracing overhead.
	untraced, allocs, err := e.facadeRun(in, c, func() (*cedr.System, error) { return cedr.New(), nil })
	if err != nil {
		return nil, err
	}
	m["trace.overhead_pct"] = (tracedTotal.Seconds()/untraced.Seconds() - 1) * 100
	row("system (untraced)", untraced, allocs)

	// Rung 4, wal: the same system made durable (cedr.Open at the default
	// SyncEvery).
	walPath := e.tempPath()
	defer os.Remove(walPath)
	durable, allocs, err := e.facadeRun(in, c, func() (*cedr.System, error) { return cedr.Open(walPath) })
	if err != nil {
		return nil, err
	}
	m["wal.ns_per_event"] = float64((durable - untraced).Nanoseconds()) / n
	m["wal.allocs_per_event"] = float64(allocs) / n
	row("wal (durable)", durable, allocs)
	if err := walFileStats(walPath, m); err != nil {
		return nil, err
	}
	if err := e.walSyncStats(items, m); err != nil {
		return nil, err
	}

	// Rung 5, server: the durable system behind the loopback server, one
	// provider connection; then again with a subscriber connection.
	ingest, err := e.loopback(items, false, c)
	if err != nil {
		return nil, err
	}
	m["server.ingest_ns_per_event"] = float64((ingest.elapsed - durable).Nanoseconds()) / n
	m["server.frame_bytes_per_event"] = float64(ingest.bytesIn) / n
	row("server ingest", ingest.elapsed, ingest.allocs)
	egress, err := e.loopback(items, true, c)
	if err != nil {
		return nil, err
	}
	m["server.egress_ns_per_output"] = float64((egress.elapsed - ingest.elapsed).Nanoseconds()) / float64(max(egress.outputs, 1))
	m["server.outputs_per_event"] = float64(egress.outputs) / n
	m["server.disconnects"] = float64(ingest.disconnects + egress.disconnects)
	row("server egress", egress.elapsed, egress.allocs)
	return res, nil
}

func perCall(st spanStats, name uint8) float64 {
	if st.calls[name] == 0 {
		return 0
	}
	return float64(st.total[name]) / float64(st.calls[name])
}

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// facadeRun registers the fleet query on a system from mk, pushes the
// items untraced, finishes, checks the oracle and closes the system. It
// returns the push time and its allocations.
func (e *env) facadeRun(in Input, c *counter, mk func() (*cedr.System, error)) (time.Duration, uint64, error) {
	sys, err := mk()
	if err != nil {
		return 0, 0, err
	}
	q, err := register(sys)
	if err != nil {
		sys.Close()
		return 0, 0, err
	}
	d, allocs := measure(func() {
		for _, ev := range in.Items {
			sys.Push(ev)
		}
	})
	sys.Finish()
	c.checks(append(checkHealth(sys, q), checkAlerts(q, in.Expected)...))
	c.op(sys.Close())
	return d, allocs, nil
}

// walFileStats reads back the durable rung's log: bytes per record, and
// the time to restore a system from it.
func walFileStats(path string, m map[string]float64) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	recs, size, err := wal.ReadAll(f)
	f.Close()
	if err != nil {
		return err
	}
	m["wal.bytes_per_record"] = float64(size) / float64(max(len(recs), 1))
	t := time.Now()
	sys, err := cedr.Open(path)
	if err != nil {
		return err
	}
	restore := time.Since(t)
	sys.Close()
	m["wal.restore_s"] = restore.Seconds()
	m["wal.restore_records_per_s"] = float64(len(recs)) / restore.Seconds()
	return nil
}

// walSyncStats appends the items' records to a fresh log directly and
// times each explicit Sync at the default batch of 32 records.
func (e *env) walSyncStats(items stream.Stream, m map[string]float64) error {
	path := e.tempPath()
	defer os.Remove(path)
	log, err := wal.Open(path, wal.SyncEvery(0))
	if err != nil {
		return err
	}
	tr := newTracer()
	for i, ev := range items {
		kind := wal.KindEvent
		if ev.IsCTI() {
			kind = wal.KindCTI
		}
		if _, err := log.Append(wal.Record{Kind: kind, Ev: ev}); err != nil {
			log.Close()
			return err
		}
		if (i+1)%32 == 0 {
			tr.SetArrival(i)
			s := tr.Begin(spanWALSync)
			err := log.Sync()
			tr.End(s)
			if err != nil {
				log.Close()
				return err
			}
		}
	}
	if err := log.Close(); err != nil {
		return err
	}
	var ds []float64
	for _, s := range tr.spans {
		ds = append(ds, float64(s.End-s.Start)/1e6)
	}
	m["wal.sync_ms"] = median(ds)
	return nil
}

// countingListener counts the bytes the server reads from its
// connections.
type countingListener struct {
	net.Listener
	read *atomic.Int64
}

func (l countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return countingConn{Conn: c, read: l.read}, nil
}

type countingConn struct {
	net.Conn
	read *atomic.Int64
}

func (c countingConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	c.read.Add(int64(n))
	return n, err
}

// settleTimeout bounds how long a loopback rung waits for the subscriber
// to receive its outputs before the rung counts as failed.
const settleTimeout = 60 * time.Second

// subscriberBuffer is the subscriber client's output channel size.
const subscriberBuffer = 1 << 16

// receiver counts a subscriber connection's output frames.
type receiver struct {
	cl     *server.Client
	recvd  atomic.Int64
	target atomic.Int64
	notify chan struct{}
	done   chan struct{}
}

func startReceiver(cl *server.Client) *receiver {
	r := &receiver{cl: cl, notify: make(chan struct{}, 1), done: make(chan struct{})}
	go func() {
		defer close(r.done)
		for range cl.Outputs() {
			if r.recvd.Add(1) >= r.target.Load() {
				select {
				case r.notify <- struct{}{}:
				default:
				}
			}
		}
	}()
	return r
}

// await blocks until the subscriber holds n output frames.
func (r *receiver) await(n int) error {
	r.target.Store(int64(n))
	deadline := time.NewTimer(settleTimeout)
	defer deadline.Stop()
	for r.recvd.Load() < int64(n) {
		select {
		case <-r.notify:
		case <-r.done:
			if r.recvd.Load() < int64(n) {
				return fmt.Errorf("subscriber disconnected after %d of %d outputs: %v", r.recvd.Load(), n, r.cl.Err())
			}
		case <-deadline.C:
			return fmt.Errorf("subscriber received %d of %d outputs within %v", r.recvd.Load(), n, settleTimeout)
		}
	}
	return nil
}

type loopbackResult struct {
	elapsed     time.Duration
	allocs      uint64
	bytesIn     int64
	outputs     int
	disconnects int
}

// loopback pushes items through a fresh durable server over one provider
// connection, with or without a subscriber connection, timing the pushes
// through Sync (and, subscribed, the last output frame).
func (e *env) loopback(items stream.Stream, subscribe bool, c *counter) (loopbackResult, error) {
	var res loopbackResult
	path := e.tempPath()
	defer os.Remove(path)
	sys, err := cedr.Open(path)
	if err != nil {
		return res, err
	}
	srv := server.New(sys)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		sys.Close()
		return res, err
	}
	read := &atomic.Int64{}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(countingListener{Listener: ln, read: read}) }()
	defer func() {
		srv.Shutdown()
		<-served
	}()
	prov, err := server.Dial(ln.Addr().String(), 0)
	if err != nil {
		return res, err
	}
	defer prov.Close()
	if err := prov.Open("provider"); err != nil {
		return res, err
	}
	if _, err := prov.Register(fleetQuery, server.RegOptions{Shards: 1}); err != nil {
		return res, err
	}
	var sub *server.Client
	var rx *receiver
	if subscribe {
		// A client-side output buffer far above any burst the engine
		// emits between two reads keeps the reader from ever applying TCP
		// backpressure, which the server would answer by failing the
		// subscriber.
		if sub, err = server.Dial(ln.Addr().String(), subscriberBuffer); err != nil {
			return res, err
		}
		rx = startReceiver(sub)
		defer func() {
			sub.Close()
			<-rx.done
		}()
		if err := sub.Subscribe(0); err != nil {
			return res, err
		}
	}
	before := read.Load()
	var settleErr error
	res.elapsed, res.allocs = measure(func() {
		for _, ev := range items {
			if err := prov.Push(ev); err != nil {
				settleErr = err
				return
			}
		}
		if settleErr = prov.Sync(); settleErr != nil || !subscribe {
			return
		}
		res.outputs = len(sys.Queries()[0].Results())
		settleErr = rx.await(res.outputs)
	})
	res.bytesIn = read.Load() - before
	c.op(settleErr)
	c.checks(checkHealth(sys, sys.Queries()[0]))
	for _, cl := range []*server.Client{prov, sub} {
		if cl != nil && cl.Err() != nil {
			res.disconnects++
		}
	}
	return res, nil
}

// median of xs (0 when empty); xs is reordered.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	mid := len(xs) / 2
	if len(xs)%2 == 1 {
		return xs[mid]
	}
	return (xs[mid-1] + xs[mid]) / 2
}

// printLadder writes the per-rung delta table.
func printLadder(w io.Writer, rows []rungRow) {
	fmt.Fprintf(w, "%-20s %14s %14s %14s %14s\n", "rung", "ns/item", "allocs/item", "delta ns", "delta allocs")
	for i, r := range rows {
		if i == 0 {
			fmt.Fprintf(w, "%-20s %14.0f %14.2f %14s %14s\n", r.name, r.ns, r.allocs, "-", "-")
			continue
		}
		b := rows[i-1]
		fmt.Fprintf(w, "%-20s %14.0f %14.2f %+14.0f %+14.2f\n", r.name, r.ns, r.allocs, r.ns-b.ns, r.allocs-b.allocs)
	}
}
