package main

import (
	"encoding/json"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"

	cedr "repro"
	"repro/internal/consistency"
	"repro/internal/server"
)

// runServeBench records the network server's loopback numbers as
// ungated BENCH_server_loopback_*.json artifacts (establishing the
// trajectory before committing floors, like the WAL entries were):
//
//   - server_loopback_throughput: sustained events/s for one source
//     session streaming the 192-machine CIDR07 fleet workload through
//     a registered MissedRestart query over TCP, pipelined pushes,
//     one Sync at the end. The full client→frame→engine→WAL-codec
//     round trip, minus subscription egress.
//   - server_loopback_latency: closed-loop push→alert latency against
//     an immediate-output query — each push waits for its output frame
//     to come back through the subscription before the next is sent.
//     ns_op is the mean round trip; p99_latency_ns the 99th percentile.
func runServeBench(dir string) error {
	if dir == "" {
		dir = "."
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	var results []BenchResult

	// --- Throughput: pipelined ingest at fleet scale.
	events := fleetStream(fleetMachines)
	thr := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			sys := cedr.New()
			srv := server.New(sys)
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				b.Fatal(err)
			}
			go srv.Serve(ln)
			c, err := server.Dial(ln.Addr().String(), 0)
			if err != nil {
				b.Fatal(err)
			}
			if err := c.Open("bench"); err != nil {
				b.Fatal(err)
			}
			q, err := c.Register(cidrQuery, server.RegOptions{})
			if err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			for _, e := range events {
				if err := c.Push(e); err != nil {
					b.Fatal(err)
				}
			}
			if err := c.Sync(); err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			if st, err := c.Status(q.ID); err != nil || st.Results == 0 {
				b.Fatalf("no output after ingest: %v %+v", err, st)
			}
			c.Close()
			srv.Shutdown()
			b.StartTimer()
		}
	})
	thrRes := BenchResult{
		Name:        "server_loopback_throughput",
		Iterations:  thr.N,
		NsPerOp:     float64(thr.T.Nanoseconds()) / float64(thr.N),
		BytesPerOp:  thr.AllocedBytesPerOp(),
		AllocsPerOp: thr.AllocsPerOp(),
	}
	if thr.T > 0 {
		thrRes.EventsPerS = float64(len(events)) * float64(thr.N) / thr.T.Seconds()
	}
	results = append(results, thrRes)

	// --- Latency: closed-loop push→alert round trip.
	lat, err := serveLatency()
	if err != nil {
		return err
	}
	results = append(results, lat)

	for _, res := range results {
		data, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			return err
		}
		path := filepath.Join(dir, "BENCH_"+res.Name+".json")
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("%-34s %12.0f ns/op %12.0f events/s  p99=%0.0fns  -> %s\n",
			res.Name, res.NsPerOp, res.EventsPerS, res.P99LatencyNs, path)
	}
	return nil
}

// serveLatency measures the closed-loop round trip: push one event,
// wait for its output frame, repeat. An immediate-output query (middle
// consistency, single-term pattern) makes every push produce exactly
// one subscribed output.
func serveLatency() (BenchResult, error) {
	const (
		warmup  = 500
		samples = 5000
	)
	sys := cedr.New()
	srv := server.New(sys)
	defer srv.Shutdown()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return BenchResult{}, err
	}
	go srv.Serve(ln)
	c, err := server.Dial(ln.Addr().String(), 0)
	if err != nil {
		return BenchResult{}, err
	}
	defer c.Close()
	if err := c.Open("bench"); err != nil {
		return BenchResult{}, err
	}
	q, err := c.Register(`EVENT Echo WHEN HOT h CONSISTENCY middle`,
		server.RegOptions{Spec: specPtr(consistency.Middle())})
	if err != nil {
		return BenchResult{}, err
	}
	if err := c.Subscribe(q.ID); err != nil {
		return BenchResult{}, err
	}
	roundTrip := func(i int) (time.Duration, error) {
		e := cedr.NewEvent(cedr.ID(i+1), "HOT", cedr.Time(i*10), cedr.Forever,
			cedr.Payload{"n": int64(i)})
		start := time.Now()
		if err := c.Push(e); err != nil {
			return 0, err
		}
		if err := c.Flush(); err != nil {
			return 0, err
		}
		select {
		case out, ok := <-c.Outputs():
			if !ok {
				return 0, fmt.Errorf("connection closed: %v", c.Err())
			}
			_ = out
			return time.Since(start), nil
		case <-time.After(10 * time.Second):
			return 0, fmt.Errorf("no output within 10s at sample %d", i)
		}
	}
	for i := 0; i < warmup; i++ {
		if _, err := roundTrip(i); err != nil {
			return BenchResult{}, err
		}
	}
	lats := make([]time.Duration, 0, samples)
	var total time.Duration
	for i := 0; i < samples; i++ {
		d, err := roundTrip(warmup + i)
		if err != nil {
			return BenchResult{}, err
		}
		lats = append(lats, d)
		total += d
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	p99 := lats[(len(lats)*99)/100]
	res := BenchResult{
		Name:         "server_loopback_latency",
		Iterations:   samples,
		NsPerOp:      float64(total.Nanoseconds()) / float64(samples),
		P99LatencyNs: float64(p99.Nanoseconds()),
	}
	if total > 0 {
		res.EventsPerS = float64(samples) / total.Seconds()
	}
	return res, nil
}

func specPtr(s cedr.Spec) *cedr.Spec { return &s }
