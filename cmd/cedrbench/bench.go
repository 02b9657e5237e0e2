package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	cedr "repro"
	"repro/internal/consistency"
	"repro/internal/core"
	"repro/internal/delivery"
	"repro/internal/engine"
	"repro/internal/event"
	"repro/internal/operators"
	"repro/internal/plan"
	"repro/internal/stream"
	"repro/internal/temporal"
	"repro/internal/wal"
	"repro/internal/workload"
)

// BenchResult is the machine-readable record emitted per benchmark as
// BENCH_<name>.json — the contract CI and future PRs consume to track the
// performance trajectory (see ROADMAP.md "Performance").
type BenchResult struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_op"`
	EventsPerS  float64 `json:"events_per_sec,omitempty"`
	BytesPerOp  int64   `json:"bytes_op"`
	AllocsPerOp int64   `json:"allocs_op"`
	// P99LatencyNs is the 99th-percentile closed-loop latency, set only
	// by the -serve-bench suite (omitempty keeps every other artifact
	// byte-compatible).
	P99LatencyNs float64 `json:"p99_latency_ns,omitempty"`
	// Multi-core scaling fields, set only by the -cpus suite (omitempty
	// keeps the single-core baseline JSONs byte-compatible): the
	// GOMAXPROCS the entry ran under, the shard count, and the speedup
	// relative to the same configuration at one core.
	Cpus           int     `json:"cpus,omitempty"`
	Shards         int     `json:"shards,omitempty"`
	SpeedupVsCpus1 float64 `json:"speedup_vs_cpus1,omitempty"`
	// Fleet-scaling fields, set only by the pattern_fleet_scaling entry:
	// µs per event on the small and the large fleet and their ratio, the
	// number -baseline gates (maxFleetScaling).
	SmallFleetUsPerEvent float64 `json:"small_fleet_us_per_event,omitempty"`
	LargeFleetUsPerEvent float64 `json:"large_fleet_us_per_event,omitempty"`
	FleetScalingRatio    float64 `json:"fleet_scaling_ratio,omitempty"`
}

// cidrQuery is the paper's §3.1 UNLESS query, the workhorse of both the
// gated pattern benchmarks and the -cpus multi-core scaling suite.
const cidrQuery = `
EVENT MissedRestart
WHEN UNLESS(SEQUENCE(INSTALL x, SHUTDOWN AS y, 12 hours), RESTART AS z, 5 minutes)
WHERE CorrelationKey(Machine_Id, EQUAL)
SC(each, consume)`

// cidrTemplate is the per-machine parameterized form of cidrQuery, used by
// the standing-query fabric benchmarks: one instance per bound Machine_Id.
const cidrTemplate = `
EVENT MissedRestart
WHEN UNLESS(SEQUENCE(INSTALL x, SHUTDOWN AS y, 12 hours), RESTART AS z, 5 minutes)
WHERE CorrelationKey(Machine_Id, EQUAL) AND [Machine_Id Equal $m]
SC(each, consume)`

// gatedBenches is the regression-gated benchmark set: every headline
// number from the ROADMAP performance tables. checkBaselines fails the run
// when any of them falls more than regressionTolerance below its committed
// floor (scaled by the calibration anchor), and -update-baselines
// re-records exactly this set (plus the anchor) under bench/baselines.
var gatedBenches = []string{
	"pattern_cidr07_end_to_end",
	"pattern_cidr07_sharded_1",
	"pattern_cidr07_sharded_8",
	"pattern_sequence_ablation_incremental",
	"pattern_keyindex",
	"figure8_middle_disordered",
	"monitor_repair_path",
	"monitor_checkpoint",
	"wal_append",
	"wal_recovery_replay",
	"fabric_registration_storm",
	"fabric_mixed_fleet_10k",
}

// gatedSet is the gated names as a set, optionally with the calibration
// anchor — the one definition the best-of-3 sampling, the baseline
// recorder and the missing-baseline check all share.
func gatedSet(withAnchor bool) map[string]bool {
	set := make(map[string]bool, len(gatedBenches)+1)
	for _, n := range gatedBenches {
		set[n] = true
	}
	if withAnchor {
		set[calibrationBench] = true
	}
	return set
}

// runBenchSuite executes the monitor- and pattern-centric benchmark set
// in-process via testing.Benchmark and writes one BENCH_*.json per entry
// into dir (dir == "" skips the per-entry artifacts — the update path uses
// this so re-recording floors does not litter the invoker's directory).
// When baselineDir is non-empty, results are additionally gated against
// the committed baselines there (checkBaselines); with update set, the
// committed baselines are instead re-recorded in place from the fresh
// results, so a perf PR updates every floor with one command.
func runBenchSuite(dir string, seed int64, baselineDir string, update bool) error {
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}

	type entry struct {
		name   string
		events int // delivered items, for events/s; 0 = not reported
		bench  func(b *testing.B)
	}

	fig8 := func(spec consistency.Spec, orderly bool) (stream.Stream, func(b *testing.B)) {
		cfg := core.DefaultFig8()
		cfg.Events = 300
		cfg.Seed = seed
		src := workload.UniformEvents(workload.Uniform{
			Seed: cfg.Seed, Events: cfg.Events, Groups: 5,
			Spacing: cfg.Spacing, Lifetime: temporal.Duration(cfg.Lifetime)})
		var dcfg delivery.Config
		if orderly {
			dcfg = delivery.Ordered(cfg.DenseCTIPeriod)
		} else {
			dcfg = delivery.Disordered(cfg.Seed, cfg.SparseCTI, cfg.StragglerDelay, cfg.StragglerProb)
		}
		delivered := delivery.Deliver(src, dcfg)
		return delivered, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				op := operators.NewAggregate(operators.Count, "", "g")
				out, _ := consistency.RunStreams(op, spec, delivered)
				if len(out) == 0 {
					b.Fatal("no output")
				}
			}
		}
	}

	monitor := func(disordered bool) (stream.Stream, func(b *testing.B)) {
		src := workload.StockTicks(workload.DefaultTicks())
		var dcfg delivery.Config
		if disordered {
			dcfg = delivery.Disordered(seed, 5*temporal.Second, 3*temporal.Second, 0.1)
		} else {
			dcfg = delivery.Ordered(5 * temporal.Second)
		}
		delivered := delivery.Deliver(src, dcfg)
		return delivered, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				op := operators.NewSelect(func(event.Payload) bool { return true })
				consistency.RunStreams(op, consistency.Middle(), delivered)
			}
		}
	}

	var entries []entry
	for _, lv := range []struct {
		name string
		spec consistency.Spec
	}{
		{"strong", consistency.Strong()},
		{"middle", consistency.Middle()},
		{"weak", consistency.Weak(0)},
	} {
		for _, orderly := range []bool{true, false} {
			suffix := "disordered"
			if orderly {
				suffix = "ordered"
			}
			delivered, fn := fig8(lv.spec, orderly)
			entries = append(entries, entry{
				name:   fmt.Sprintf("figure8_%s_%s", lv.name, suffix),
				events: len(delivered),
				bench:  fn,
			})
		}
	}
	fastDelivered, fastFn := monitor(false)
	entries = append(entries, entry{name: "monitor_fast_path", events: len(fastDelivered), bench: fastFn})
	repairDelivered, repairFn := monitor(true)
	entries = append(entries, entry{name: "monitor_repair_path", events: len(repairDelivered), bench: repairFn})

	// Checkpoint dimension: the delta-driven versioned path under a
	// straggler-heavy stream — journal-mark snapshots, rollback-in-place
	// repair, base-slide checkpointing — through a stateful incremental
	// sequence matcher. This is the path the COW/undo-journal rewrite
	// replaced clone-and-replay on; its floor is gated so checkpoint capture
	// cannot silently regress back to O(state) copying.
	ckptSrc, _ := workload.MachineEvents(workload.DefaultMachines())
	ckptDelivered := delivery.Deliver(ckptSrc,
		delivery.Disordered(seed, 30*temporal.Minute, 15*temporal.Minute, 0.2))
	const ckptQuery = `EVENT Pairs WHEN SEQUENCE(INSTALL x, SHUTDOWN y, 12 hours)
WHERE {x.Machine_Id = y.Machine_Id} SC(each, consume)`
	ckptPlan, err := plan.Compile(ckptQuery)
	if err != nil {
		return err
	}
	entries = append(entries, entry{
		name:   "monitor_checkpoint",
		events: len(ckptDelivered),
		bench: func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				m := consistency.NewMonitor(ckptPlan.Stages[0].Clone(), consistency.Middle())
				for _, e := range ckptDelivered {
					m.Push(0, e)
				}
				m.Finish()
			}
		},
	})

	// Shard dimension: the key-partitioned parallel runtime over a wide
	// grouped-aggregation workload. On multi-core hosts this records the
	// real parallel speedup; on single-core CI it records the runtime's
	// overhead (see BenchmarkShardCriticalPath for the projected number).
	shardCfg := workload.Uniform{Seed: seed, Events: 4000, Groups: 64, Spacing: 4, Lifetime: 10}
	shardSrc := workload.UniformEvents(shardCfg)
	shardDelivered := delivery.Deliver(shardSrc,
		delivery.Disordered(seed, 100*temporal.Duration(shardCfg.Spacing),
			30*temporal.Duration(shardCfg.Spacing), 0.1))
	for _, shards := range []int{1, 2, 4, 8} {
		shards := shards
		entries = append(entries, entry{
			name:   fmt.Sprintf("sharded_aggregate_middle_shards_%d", shards),
			events: len(shardDelivered),
			bench: func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					out, _, err := engine.RunShardedOp(
						func() operators.Op { return operators.NewAggregate(operators.Count, "", "g") },
						consistency.Middle(), shards, engine.RouteByAttr("g", shards), shardDelivered)
					if err != nil {
						b.Fatal(err)
					}
					if len(out) == 0 {
						b.Fatal("no output")
					}
				}
			},
		})
	}

	// Pattern-matching dimension: the §3.1 UNLESS query end-to-end through
	// language + plan + engine (the incremental matcher tree), plus the
	// sequence-matching ablation pair. BENCH_pattern_cidr07_end_to_end.json
	// is the artifact the CI regression gate compares against its committed
	// baseline (see checkBaselines).
	patternSrc, _ := workload.MachineEvents(workload.DefaultMachines())
	patternDelivered := delivery.Deliver(patternSrc, delivery.Ordered(10*temporal.Minute))
	entries = append(entries, entry{
		name:   "pattern_cidr07_end_to_end",
		events: len(patternDelivered),
		bench: func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sys := cedr.New()
				q, err := sys.Register(cidrQuery, cedr.WithSpec(consistency.Middle()))
				if err != nil {
					b.Fatal(err)
				}
				sys.Run(patternDelivered)
				if len(q.Alerts()) == 0 {
					b.Fatal("no alerts")
				}
			}
		},
	})
	// The same query at fleet scale (fleetStream, shared with the -cpus
	// multi-core scaling suite) through the key-partitioned runtime, at
	// 1 shard (the plain single-monitor path) and 8. The stream must be
	// long enough that steady-state matching, not the 8× registration and
	// log-growth warmup, dominates: with the old 24-machine/5-cycle stream
	// (~400 events) the 8-shard entry measured warmup and inverted on a
	// single core. Each floor gates its own path. State expiry is
	// O(expired), so splitting the keys across shards saves no scanning:
	// whatever lead shards=8 keeps over shards=1 comes from parallel
	// cores (see -cpus).
	shardedDelivered := fleetStream(fleetMachines)
	for _, shards := range []int{1, 8} {
		shards := shards
		entries = append(entries, entry{
			name:   fmt.Sprintf("pattern_cidr07_sharded_%d", shards),
			events: len(shardedDelivered),
			bench: func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					sys := cedr.New()
					q, err := sys.Register(cidrQuery, cedr.WithSpec(consistency.Middle()), cedr.WithShards(shards))
					if err != nil {
						b.Fatal(err)
					}
					sys.Run(shardedDelivered)
					if len(q.Alerts()) == 0 {
						b.Fatal("no alerts")
					}
				}
			},
		})
	}
	const seqQuery = `EVENT Pairs WHEN SEQUENCE(INSTALL x, SHUTDOWN y, 12 hours)
WHERE {x.Machine_Id = y.Machine_Id} SC(each, consume)`
	for _, v := range []struct {
		name string
		opts []plan.Option
	}{
		{"pattern_sequence_ablation_incremental", nil},
		{"pattern_sequence_ablation_no_pushdown", []plan.Option{plan.WithoutPushdown()}},
		{"pattern_sequence_ablation_semi_naive", []plan.Option{plan.WithoutSpecialization()}},
	} {
		p, err := plan.Compile(seqQuery, v.opts...)
		if err != nil {
			return err
		}
		entries = append(entries, entry{
			name:   v.name,
			events: len(patternDelivered),
			bench: func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					m := consistency.NewMonitor(p.Stages[0].Clone(), consistency.Middle())
					for _, e := range patternDelivered {
						m.Push(0, e)
					}
					m.Finish()
				}
			},
		})
	}

	// Key-index stress: the correlation-pushdown win over a wide key
	// domain (64 machines — the flat join's fan-out crosses every key;
	// the keyed join touches one bucket). BENCH_pattern_keyindex.json is
	// gated so the pushdown cannot silently regress.
	keyIdxSrc, _ := workload.MachineEvents(workload.Machines{
		Seed: 1, Machines: 64, Cycles: 4,
		RestartDeadline: 5 * temporal.Minute, MissProb: 0.3,
		CycleGap: 30 * temporal.Minute,
	})
	keyIdxDelivered := delivery.Deliver(keyIdxSrc, delivery.Ordered(10*temporal.Minute))
	keyIdxPlan, err := plan.Compile(seqQuery)
	if err != nil {
		return err
	}
	entries = append(entries, entry{
		name:   "pattern_keyindex",
		events: len(keyIdxDelivered),
		bench: func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				m := consistency.NewMonitor(keyIdxPlan.Stages[0].Clone(), consistency.Middle())
				for _, e := range keyIdxDelivered {
					m.Push(0, e)
				}
				m.Finish()
			}
		},
	})

	// Durability dimension (ungated this cycle — recorded to establish the
	// trajectory before committing floors): raw WAL append throughput with
	// default fsync batching, and crash-recovery replay of the CIDR07 query
	// through engine.Restore. Durability is opt-in, so neither touches the
	// gated hot-path numbers above.
	walDir, err := os.MkdirTemp("", "cedrbench-wal")
	if err != nil {
		return err
	}
	defer os.RemoveAll(walDir)
	entries = append(entries, entry{
		name:   "wal_append",
		events: len(patternDelivered),
		bench: func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				log, err := wal.Open(filepath.Join(walDir, "append.wal"))
				if err != nil {
					b.Fatal(err)
				}
				for _, ev := range patternDelivered {
					kind := wal.KindEvent
					if ev.IsCTI() {
						kind = wal.KindCTI
					}
					if _, err := log.Append(wal.Record{Kind: kind, Ev: ev}); err != nil {
						b.Fatal(err)
					}
				}
				if err := log.Close(); err != nil {
					b.Fatal(err)
				}
				if err := os.Remove(filepath.Join(walDir, "append.wal")); err != nil {
					b.Fatal(err)
				}
			}
		},
	})
	// Pre-build the log to recover from: one durable run over the CIDR07
	// workload, crashed without Finish (the recovery-relevant shape).
	replayPath := filepath.Join(walDir, "replay.wal")
	if err := func() error {
		sys, err := cedr.Open(replayPath)
		if err != nil {
			return err
		}
		if _, err := sys.Register(cidrQuery, cedr.WithSpec(consistency.Middle())); err != nil {
			return err
		}
		for _, ev := range patternDelivered {
			sys.Push(ev)
		}
		return sys.Close()
	}(); err != nil {
		return err
	}
	entries = append(entries, entry{
		name:   "wal_recovery_replay",
		events: len(patternDelivered),
		bench: func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sys, err := cedr.Open(replayPath)
				if err != nil {
					b.Fatal(err)
				}
				if len(sys.Queries()) != 1 {
					b.Fatal("recovery lost the query")
				}
				if err := sys.Close(); err != nil {
					b.Fatal(err)
				}
			}
		},
	})

	// Standing-query fabric dimension (ISSUE 9): thousands of standing
	// queries over one stream. The mixed fleet is 2k registrations of the
	// identical fleet-wide query (one shared chain, 2k endpoints) plus 8k
	// template instances spread over 64 machine bindings (64 shared keyed
	// chains). fabric_registration_storm gates registrations/s through the
	// compile + sharing-identity cache; fabric_mixed_fleet_10k gates
	// end-to-end ev/s with key routing on. The _unshared entry is the
	// ungated reference the >=10x acceptance ratio is read against: the
	// same 10k queries as private chains on a broadcast engine.
	fabricSrc, _ := workload.MachineEvents(workload.Machines{
		Seed: 1, Machines: 64, Cycles: 6,
		RestartDeadline: 5 * temporal.Minute, MissProb: 0.3,
		CycleGap: 30 * temporal.Minute,
	})
	fabricDelivered := delivery.Deliver(fabricSrc, delivery.Ordered(10*temporal.Minute))
	const fabricFleet = 10000
	const fabricIdentical = 2000
	registerFleet := func(b *testing.B, sys *cedr.System, extra ...cedr.QueryOption) []*cedr.Query {
		qs := make([]*cedr.Query, 0, fabricFleet)
		for i := 0; i < fabricFleet; i++ {
			opts := []cedr.QueryOption{cedr.WithSpec(consistency.Middle())}
			src := cidrQuery
			if i >= fabricIdentical {
				src = cidrTemplate
				opts = append(opts, cedr.WithTemplate(cedr.Payload{"m": workload.MachineID(i % 64)}))
			}
			q, err := sys.Register(src, append(opts, extra...)...)
			if err != nil {
				b.Fatal(err)
			}
			qs = append(qs, q)
		}
		return qs
	}
	// Sanity-check a sample (the fleet-wide query plus one instance per
	// binding) rather than all 10k endpoints: scanning every Alerts() slice
	// costs a third of the iteration and would gate the verification loop,
	// not the fabric.
	fleetAlerts := func(b *testing.B, qs []*cedr.Query) {
		total := len(qs[0].Alerts())
		for i := 0; i < 64; i++ {
			total += len(qs[fabricIdentical+i].Alerts())
		}
		if total == 0 {
			b.Fatal("fleet detected nothing")
		}
	}
	entries = append(entries, entry{
		name:   "fabric_registration_storm",
		events: fabricFleet, // events/s reads as registrations/s here
		bench: func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sys := cedr.New(cedr.WithRouting())
				registerFleet(b, sys)
			}
		},
	})
	entries = append(entries, entry{
		name:   "fabric_mixed_fleet_10k",
		events: len(fabricDelivered),
		bench: func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sys := cedr.New(cedr.WithRouting())
				qs := registerFleet(b, sys)
				sys.Run(fabricDelivered)
				fleetAlerts(b, qs)
			}
		},
	})
	// The unshared reference runs a stream prefix: at ~14µs per
	// chain-push, 10k private chains over the full stream take minutes
	// per iteration without changing the per-event rate the ratio is
	// computed from (events/s is length-normalized, and matcher state
	// only grows past the prefix, so the prefix rate flatters the
	// unshared side — the conservative direction for the >=10x claim).
	unsharedPrefix := fabricDelivered
	if len(unsharedPrefix) > 300 {
		unsharedPrefix = unsharedPrefix[:300]
	}
	entries = append(entries, entry{
		name:   "fabric_mixed_fleet_10k_unshared",
		events: len(unsharedPrefix),
		bench: func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sys := cedr.New()
				qs := registerFleet(b, sys, cedr.WithoutSharing())
				sys.Run(unsharedPrefix)
				fleetAlerts(b, qs)
			}
		},
	})

	sampled := gatedSet(true)

	var results []BenchResult
	record := func(out BenchResult) error {
		where := ""
		if dir != "" {
			data, err := json.MarshalIndent(out, "", "  ")
			if err != nil {
				return err
			}
			path := filepath.Join(dir, "BENCH_"+strings.ReplaceAll(out.Name, "/", "_")+".json")
			if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
				return err
			}
			where = "  -> " + path
		}
		fmt.Printf("%-40s %12.0f ns/op %12.0f events/s %8d allocs/op%s\n",
			out.Name, out.NsPerOp, out.EventsPerS, out.AllocsPerOp, where)
		results = append(results, out)
		return nil
	}
	for _, e := range entries {
		// Gated benchmarks (and the calibration anchor) are sampled
		// best-of-3: single-sample wall numbers on a loaded or single-core
		// host swing well past the 20% gate tolerance (the sharded
		// benchmarks especially — goroutine scheduling noise), and the
		// fastest of three is the most reproducible estimate of what the
		// code can do. Both sides of the gate — the committed floor and
		// the fresh measurement — use the same rule.
		runs := 1
		if sampled[e.name] {
			runs = 3
		}
		if err := record(benchResult(e.name, e.events, bestOf(e.bench, runs))); err != nil {
			return err
		}
	}
	scaling, err := fleetScaling()
	if err != nil {
		return err
	}
	if err := record(scaling); err != nil {
		return err
	}
	if update {
		return updateBaselines(results, baselineDir)
	}
	if baselineDir != "" {
		return checkBaselines(results, baselineDir)
	}
	return nil
}

// bestOf runs bench runs times and keeps the fastest result.
func bestOf(bench func(*testing.B), runs int) testing.BenchmarkResult {
	// Settle the heap first: without this, allocation-heavy benchmarks
	// inflate the GC pacing target for every entry after them, and the
	// measured number depends on suite order rather than the code under
	// test.
	runtime.GC()
	res := testing.Benchmark(bench)
	for r := 1; r < runs; r++ {
		again := testing.Benchmark(bench)
		if float64(again.T.Nanoseconds())/float64(again.N) <
			float64(res.T.Nanoseconds())/float64(res.N) {
			res = again
		}
	}
	return res
}

// benchResult is the BENCH_*.json record of one measurement; events is the
// number of delivered items per op (0 = events/s not reported).
func benchResult(name string, events int, res testing.BenchmarkResult) BenchResult {
	out := BenchResult{
		Name:        name,
		Iterations:  res.N,
		NsPerOp:     float64(res.T.Nanoseconds()) / float64(res.N),
		BytesPerOp:  res.AllocedBytesPerOp(),
		AllocsPerOp: res.AllocsPerOp(),
	}
	if events > 0 && res.T > 0 {
		out.EventsPerS = float64(events) * float64(res.N) / res.T.Seconds()
	}
	return out
}

// The fleet-scaling gate: the §3.1 query, one shard, Middle consistency, on
// fleetStream at a small and a large fleet. The query is key-partitioned
// and state expiry costs O(expired), so per-event cost should barely move
// with the number of live correlation keys; any per-event scan of live
// state makes it grow linearly with them. -baseline fails when the ratio
// of µs/event exceeds maxFleetScaling.
const (
	smallFleet      = 24
	largeFleet      = 384
	maxFleetScaling = 2.5
)

// fleetScaling measures µs/event at smallFleet and largeFleet machines
// (best of 3 each) and reports them as the pattern_fleet_scaling entry; the
// entry's own ns_op, events_per_sec and allocations are the large fleet's.
func fleetScaling() (BenchResult, error) {
	run := func(machines int) (testing.BenchmarkResult, int) {
		in := fleetStream(machines)
		return bestOf(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sys := cedr.New()
				q, err := sys.Register(cidrQuery, cedr.WithSpec(consistency.Middle()))
				if err != nil {
					b.Fatal(err)
				}
				sys.Run(in)
				if len(q.Alerts()) == 0 {
					b.Fatal("no alerts")
				}
			}
		}, 3), len(in)
	}
	usPerEvent := func(res testing.BenchmarkResult, events int) float64 {
		return res.T.Seconds() * 1e6 / float64(res.N) / float64(events)
	}
	small, smallEvents := run(smallFleet)
	large, largeEvents := run(largeFleet)
	if small.N == 0 || large.N == 0 {
		return BenchResult{}, fmt.Errorf("fleet scaling: a benchmark run failed")
	}
	out := benchResult("pattern_fleet_scaling", largeEvents, large)
	out.SmallFleetUsPerEvent = usPerEvent(small, smallEvents)
	out.LargeFleetUsPerEvent = usPerEvent(large, largeEvents)
	out.FleetScalingRatio = out.LargeFleetUsPerEvent / out.SmallFleetUsPerEvent
	fmt.Printf("fleet scaling: %.2f µs/event at %d machines, %.2f at %d — ratio %.2f (gate %.1f)\n",
		out.SmallFleetUsPerEvent, smallFleet, out.LargeFleetUsPerEvent, largeFleet,
		out.FleetScalingRatio, maxFleetScaling)
	return out, nil
}

// updateBaselines re-records the committed baseline JSONs for the gated
// benchmark set (and the calibration anchor) from the fresh results.
func updateBaselines(results []BenchResult, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	want := gatedSet(true)
	for _, res := range results {
		if !want[res.Name] {
			continue
		}
		delete(want, res.Name)
		data, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			return err
		}
		path := filepath.Join(dir, "BENCH_"+res.Name+".json")
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("baseline updated: %s (%.0f events/s)\n", path, res.EventsPerS)
	}
	if len(want) > 0 {
		names := make([]string, 0, len(want))
		for n := range want {
			names = append(names, n)
		}
		return fmt.Errorf("update-baselines: suite produced no result for %s", strings.Join(names, ", "))
	}
	return nil
}

// regressionTolerance is how far events/s may fall below a committed
// baseline before the run fails: 20%, per the CI performance gate.
const regressionTolerance = 0.20

// calibrationBench anchors the gate across hardware: when both the
// committed baselines and the fresh run include it, every baseline is
// scaled by the fresh/committed ratio of this monitor-bound benchmark, so
// the gate measures the pattern path's speed relative to the machine it
// runs on rather than the machine the baseline was recorded on.
const calibrationBench = "monitor_fast_path"

// checkBaselines compares fresh results against the committed baseline
// JSONs in dir (only benchmarks that have a baseline file are gated) and
// fails on a regression beyond the tolerance.
func checkBaselines(results []BenchResult, dir string) error {
	loadBase := func(name string) (BenchResult, bool, error) {
		data, err := os.ReadFile(filepath.Join(dir, "BENCH_"+name+".json"))
		if err != nil {
			if os.IsNotExist(err) {
				return BenchResult{}, false, nil
			}
			return BenchResult{}, false, err
		}
		var base BenchResult
		if err := json.Unmarshal(data, &base); err != nil {
			return BenchResult{}, false, fmt.Errorf("baseline BENCH_%s.json: %w", name, err)
		}
		return base, true, nil
	}

	// The scale is clamped: calibration is meant to absorb hardware
	// differences, not code changes to the monitor itself — an unbounded
	// scale would let a monitor regression silently lower the pattern
	// floor (or a monitor speedup spuriously raise it). The bounds are
	// asymmetric: hosts up to 4× slower than the baseline recorder are
	// plausible CI hardware and must not hard-fail an unchanged tree
	// (the gate still catches the ~25× cliff back to semi-naive), while
	// upward swings are capped tight because a genuinely faster machine
	// speeds the gated bench along with the anchor. Swings beyond the
	// clamp surface in the printed factor and in the monitor's own locked
	// equivalence/trajectory checks.
	const scaleMin, scaleMax = 0.25, 2.0
	scale := 1.0
	if calBase, ok, err := loadBase(calibrationBench); err != nil {
		return err
	} else if ok && calBase.EventsPerS > 0 {
		for _, res := range results {
			if res.Name == calibrationBench && res.EventsPerS > 0 {
				scale = res.EventsPerS / calBase.EventsPerS
				clamped := ""
				if scale < scaleMin {
					scale, clamped = scaleMin, " (clamped)"
				} else if scale > scaleMax {
					scale, clamped = scaleMax, " (clamped)"
				}
				fmt.Printf("baseline calibration via %s: this machine runs at %.2f× the baseline host%s\n",
					calibrationBench, scale, clamped)
				break
			}
		}
	}

	// Every gated benchmark must have a committed baseline: a silently
	// missing file would un-gate the number it protects.
	var failures []string
	gated := gatedSet(false)

	// Per-benchmark before/after summary, printed for every fresh result
	// that has a committed baseline (gated or merely recorded).
	fmt.Println("| benchmark | committed ev/s | floor | fresh ev/s | change | verdict |")
	fmt.Println("|---|---|---|---|---|---|")
	checked := 0
	for _, res := range results {
		if res.Name == calibrationBench {
			continue
		}
		base, ok, err := loadBase(res.Name)
		if err != nil {
			return err
		}
		if !ok || base.EventsPerS <= 0 || res.EventsPerS <= 0 {
			if gated[res.Name] {
				delete(gated, res.Name)
				switch {
				case !ok:
					failures = append(failures, fmt.Sprintf(
						"%s: gated benchmark has no committed baseline under %s (run cedrbench -update-baselines)",
						res.Name, dir))
				case base.EventsPerS <= 0:
					failures = append(failures, fmt.Sprintf(
						"%s: committed baseline under %s has no positive events_per_sec (corrupt or hand-edited?)",
						res.Name, dir))
				default:
					failures = append(failures, fmt.Sprintf(
						"%s: fresh run reported no positive events/s to gate on", res.Name))
				}
			}
			continue
		}
		delete(gated, res.Name)
		checked++
		floor := base.EventsPerS * scale * (1 - regressionTolerance)
		verdict := "ok"
		if res.EventsPerS < floor {
			verdict = "REGRESSED"
			failures = append(failures, fmt.Sprintf(
				"%s: %.0f events/s is below the floor %.0f (committed %.0f × calibration %.2f − %d%%)",
				res.Name, res.EventsPerS, floor, base.EventsPerS, scale, int(regressionTolerance*100)))
		}
		fmt.Printf("| %s | %.0f | %.0f | %.0f | %+.1f%% | %s |\n",
			res.Name, base.EventsPerS, floor, res.EventsPerS,
			100*(res.EventsPerS/(base.EventsPerS*scale)-1), verdict)
	}
	for n := range gated {
		failures = append(failures, fmt.Sprintf(
			"%s: gated benchmark missing from the suite results", n))
	}
	// The fleet-scaling gate is a bound on a ratio measured within one
	// run, so it needs no committed baseline and no calibration.
	scaled := false
	for _, res := range results {
		if res.FleetScalingRatio == 0 {
			continue
		}
		scaled = true
		if res.FleetScalingRatio > maxFleetScaling {
			failures = append(failures, fmt.Sprintf(
				"%s: µs/event grows %.2f× from %d to %d machines, above the %.1f× bound — per-event cost scales with live keys again",
				res.Name, res.FleetScalingRatio, smallFleet, largeFleet, maxFleetScaling))
		}
	}
	if !scaled {
		failures = append(failures, "pattern_fleet_scaling: fleet-scaling ratio missing from the suite results")
	}
	if checked == 0 {
		return fmt.Errorf("baseline check: no baseline files matched under %s", dir)
	}
	if len(failures) > 0 {
		return fmt.Errorf("performance regression:\n  %s", strings.Join(failures, "\n  "))
	}
	return nil
}
