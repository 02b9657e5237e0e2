package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"testing"

	cedr "repro"
	"repro/internal/consistency"
	"repro/internal/delivery"
	"repro/internal/stream"
	"repro/internal/temporal"
	"repro/internal/workload"
)

// fleetMachines is the fleet size of the sharded benchmarks' workload.
const fleetMachines = 192

// fleetStream builds the fleet-scale CIDR07 workload the sharded
// benchmarks run on (machines = fleetMachines) and the fleet-scaling gate
// varies: that many machines over 20 install/shutdown/restart cycles,
// delivered in order with a 10-minute CTI period. Long enough that
// steady-state matching — not registration and log-growth warmup —
// dominates the measurement.
func fleetStream(machines int) stream.Stream {
	src, _ := workload.MachineEvents(workload.Machines{
		Seed: 1, Machines: machines, Cycles: 20,
		RestartDeadline: 5 * temporal.Minute, MissProb: 0.3,
		CycleGap: 30 * temporal.Minute,
	})
	return delivery.Deliver(src, delivery.Ordered(10*temporal.Minute))
}

// parseCPUList parses the -cpus flag: comma-separated positive GOMAXPROCS
// values, e.g. "1,2,4,8". The list is deduplicated and sorted, and must
// include 1 — every speedup in the artifact is relative to the same
// configuration pinned to one core, so the anchor has to be measured.
func parseCPUList(s string) ([]int, error) {
	seen := map[int]bool{}
	for _, f := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("cpus: %q is not a positive integer", f)
		}
		seen[n] = true
	}
	if !seen[1] {
		seen[1] = true // the speedup anchor
	}
	cpus := make([]int, 0, len(seen))
	for n := range seen {
		cpus = append(cpus, n)
	}
	sort.Ints(cpus)
	return cpus, nil
}

// runMulticoreSuite measures how the 8-shard CIDR07 pipeline scales with
// cores: the same fleet-scale benchmark the gated single-core floors run,
// repeated under each requested GOMAXPROCS, best-of-3, with the speedup
// over the one-core run recorded per entry. One BENCH_multicore_cpusN.json
// is written per point; CI uploads them as ungated artifacts (absolute
// multi-core numbers depend on the runner, so they chart the trajectory
// rather than gate it). Requesting more cpus than the host has is allowed
// — GOMAXPROCS can exceed NumCPU — but the entry is marked so a flat
// curve past the physical core count is not misread as a scaling bug.
func runMulticoreSuite(dir string, cpus []int) error {
	if dir == "" {
		dir = "."
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	const shards = 8
	in := fleetStream(fleetMachines)
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)

	fmt.Printf("multi-core sharded scaling: CIDR07 @%d shards, %d events, host has %d cpus\n",
		shards, len(in), runtime.NumCPU())

	var results []BenchResult
	var anchor float64 // events/s at cpus=1
	for _, c := range cpus {
		runtime.GOMAXPROCS(c)
		bench := func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sys := cedr.New()
				q, err := sys.Register(cidrQuery,
					cedr.WithSpec(consistency.Middle()), cedr.WithShards(shards))
				if err != nil {
					b.Fatal(err)
				}
				sys.Run(in)
				if len(q.Alerts()) == 0 {
					b.Fatal("no alerts")
				}
			}
		}
		runtime.GC()
		res := testing.Benchmark(bench)
		for r := 1; r < 3; r++ {
			again := testing.Benchmark(bench)
			if float64(again.T.Nanoseconds())/float64(again.N) <
				float64(res.T.Nanoseconds())/float64(res.N) {
				res = again
			}
		}
		out := BenchResult{
			Name:        fmt.Sprintf("multicore_cidr07_sharded%d_cpus%d", shards, c),
			Iterations:  res.N,
			NsPerOp:     float64(res.T.Nanoseconds()) / float64(res.N),
			BytesPerOp:  res.AllocedBytesPerOp(),
			AllocsPerOp: res.AllocsPerOp(),
			Cpus:        c,
			Shards:      shards,
		}
		if res.T > 0 {
			out.EventsPerS = float64(len(in)) * float64(res.N) / res.T.Seconds()
		}
		if c == 1 {
			anchor = out.EventsPerS
		}
		if anchor > 0 {
			out.SpeedupVsCpus1 = out.EventsPerS / anchor
		}
		note := ""
		if c > runtime.NumCPU() {
			note = "  (oversubscribed: exceeds physical cores)"
		}
		fmt.Printf("  cpus=%-2d %12.0f events/s   speedup x%.2f%s\n",
			c, out.EventsPerS, out.SpeedupVsCpus1, note)
		results = append(results, out)
	}
	runtime.GOMAXPROCS(prev)

	for _, res := range results {
		data, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			return err
		}
		path := filepath.Join(dir, fmt.Sprintf("BENCH_multicore_cpus%d.json", res.Cpus))
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("  -> %s\n", path)
	}
	return nil
}
