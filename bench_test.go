package cedr

// Benchmarks regenerating the paper's evaluation artifacts, one per figure
// or experiment (see DESIGN.md §4 for the index). Run:
//
//	go test -bench=. -benchmem
//
// Absolute timings are hardware-dependent; the semantic shapes (who blocks,
// who retracts, who forgets) are asserted by the unit tests in
// internal/core. The benchmarks here measure the costs those shapes imply.

import (
	"fmt"
	"testing"

	"repro/internal/algebra"
	"repro/internal/baseline"
	"repro/internal/consistency"
	"repro/internal/core"
	"repro/internal/delivery"
	"repro/internal/engine"
	"repro/internal/event"
	"repro/internal/history"
	"repro/internal/operators"
	"repro/internal/plan"
	"repro/internal/stream"
	"repro/internal/temporal"
	"repro/internal/workload"
)

// --- Figures 1–6, 10: the temporal model machinery ---

func BenchmarkFigure1ConceptualModel(b *testing.B) {
	tbl, _ := history.Figure1()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = tbl.CanonicalTo(3)
	}
}

func BenchmarkFigure2TritemporalReduce(b *testing.B) {
	tbl, _, _ := history.Figure2()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = tbl.Reduce()
	}
}

func BenchmarkFigure5Canonicalization(b *testing.B) {
	left, right, _ := history.Figure3()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if !left.EquivalentTo(right, 3) {
			b.Fatal("figure 5 equivalence broken")
		}
	}
}

func BenchmarkFigure6SyncPoints(b *testing.B) {
	tbl, _ := history.Figure6()
	ann := tbl.Annotate()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = history.SyncPoints(ann)
	}
}

func BenchmarkFigure10IdealTable(b *testing.B) {
	src := workload.StockTicks(workload.DefaultTicks())
	tbl := history.FromEvents(src)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = tbl.Ideal().Star()
	}
}

// --- Figure 8: consistency levels × orderliness ---

func fig8Bench(b *testing.B, spec consistency.Spec, orderly bool) {
	b.Helper()
	cfg := core.DefaultFig8()
	cfg.Events = 300
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
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		op := operators.NewAggregate(operators.Count, "", "g")
		out, _ := consistency.RunStreams(op, spec, delivered)
		if len(out) == 0 {
			b.Fatal("no output")
		}
	}
	b.ReportMetric(float64(len(delivered))*float64(b.N)/b.Elapsed().Seconds(), "events/s")
}

func BenchmarkFigure8StrongOrdered(b *testing.B)    { fig8Bench(b, consistency.Strong(), true) }
func BenchmarkFigure8StrongDisordered(b *testing.B) { fig8Bench(b, consistency.Strong(), false) }
func BenchmarkFigure8MiddleOrdered(b *testing.B)    { fig8Bench(b, consistency.Middle(), true) }
func BenchmarkFigure8MiddleDisordered(b *testing.B) { fig8Bench(b, consistency.Middle(), false) }
func BenchmarkFigure8WeakOrdered(b *testing.B)      { fig8Bench(b, consistency.Weak(0), true) }
func BenchmarkFigure8WeakDisordered(b *testing.B)   { fig8Bench(b, consistency.Weak(0), false) }

// --- Figure 9: an interior point of the (B, M) spectrum ---

func BenchmarkFigure9InteriorLevel(b *testing.B) {
	fig8Bench(b, consistency.Level(30, 150), false)
}

// --- §3.1 end-to-end: the CIDR07 example through language+plan+engine ---

func BenchmarkCIDR07EndToEnd(b *testing.B) {
	src, _ := workload.MachineEvents(workload.DefaultMachines())
	tenMin := 10 * temporal.Minute
	delivered := delivery.Deliver(src, delivery.Ordered(tenMin))
	const q = `
EVENT MissedRestart
WHEN UNLESS(SEQUENCE(INSTALL x, SHUTDOWN AS y, 12 hours), RESTART AS z, 5 minutes)
WHERE CorrelationKey(Machine_Id, EQUAL)
SC(each, consume)`
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sys := New()
		query, err := sys.Register(q, WithSpec(Middle()))
		if err != nil {
			b.Fatal(err)
		}
		sys.Run(delivered)
		if len(query.Alerts()) == 0 {
			b.Fatal("no alerts")
		}
	}
	b.ReportMetric(float64(len(delivered))*float64(b.N)/b.Elapsed().Seconds(), "events/s")
}

// --- §1 baseline comparison: throughput of the strawman vs CEDR ---

func BenchmarkBaselinePointAggregate(b *testing.B) {
	src := workload.StockTicks(workload.DefaultTicks())
	delivered := delivery.Deliver(src, delivery.Ordered(10*temporal.Second))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		baseline.RunPointAggregate(delivered, 10*temporal.Second, "price")
	}
	b.ReportMetric(float64(len(delivered))*float64(b.N)/b.Elapsed().Seconds(), "events/s")
}

func BenchmarkCEDRAggregateStrong(b *testing.B) {
	src := workload.StockTicks(workload.DefaultTicks())
	delivered := delivery.Deliver(src, delivery.Ordered(10*temporal.Second))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		op := operators.NewAggregate(operators.Avg, "price", "symbol")
		consistency.RunStreams(op, consistency.Strong(), delivered)
	}
	b.ReportMetric(float64(len(delivered))*float64(b.N)/b.Elapsed().Seconds(), "events/s")
}

func BenchmarkPubSubRouting(b *testing.B) {
	src := workload.StockTicks(workload.DefaultTicks())
	ps := baseline.NewPubSub()
	for s := 0; s < 8; s++ {
		ps.Subscribe("TICK", nil)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, e := range src {
			ps.Publish(e)
		}
	}
}

// --- Ablations ---

// Three-way sequence-matching ablation over the same workload and monitor:
// the delta-driven matcher tree (the default plan, rewrite
// `incremental-pattern`), the semi-naive re-deriving evaluator
// (WithoutSpecialization), and the hand-specialized flat chain matcher
// (algebra.SequenceOp, kept purely as this ablation's upper baseline).
func seqBenchOp(b *testing.B, mk func() operators.Op) {
	src, _ := workload.MachineEvents(workload.DefaultMachines())
	delivered := delivery.Deliver(src, delivery.Ordered(10*temporal.Minute))
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m := consistency.NewMonitor(mk(), consistency.Middle())
		for _, e := range delivered {
			m.Push(0, e)
		}
		m.Finish()
	}
	b.ReportMetric(float64(len(delivered))*float64(b.N)/b.Elapsed().Seconds(), "events/s")
}

func seqBench(b *testing.B, opts ...plan.Option) {
	const q = `EVENT Pairs WHEN SEQUENCE(INSTALL x, SHUTDOWN y, 12 hours)
WHERE {x.Machine_Id = y.Machine_Id} SC(each, consume)`
	p, err := plan.Compile(q, opts...)
	if err != nil {
		b.Fatal(err)
	}
	seqBenchOp(b, func() operators.Op { return p.Stages[0].Clone() })
}

func BenchmarkAblationSequenceIncremental(b *testing.B) { seqBench(b) }
func BenchmarkAblationSequenceGeneric(b *testing.B) {
	seqBench(b, plan.WithoutSpecialization())
}

// The same matcher tree with correlation-key pushdown disabled: the delta
// against BenchmarkAblationSequenceIncremental is the pushdown's isolated
// contribution (the join enumerates every cross-key pair again and the
// residual filter drops them after the fact).
func BenchmarkAblationSequenceNoPushdown(b *testing.B) {
	seqBench(b, plan.WithoutPushdown())
}

// Key-index stress: the pushdown win grows with the key domain, since the
// flat join's fan-out is quadratic in co-live matches across *all* keys
// while the keyed join only touches one bucket. 64 machines instead of the
// ablation's 10 — this is the shape cedrbench gates as pattern_keyindex.
func BenchmarkAblationPatternKeyIndex(b *testing.B) {
	src, _ := workload.MachineEvents(workload.Machines{
		Seed: 1, Machines: 64, Cycles: 4,
		RestartDeadline: 5 * temporal.Minute, MissProb: 0.3,
		CycleGap: 30 * temporal.Minute,
	})
	delivered := delivery.Deliver(src, delivery.Ordered(10*temporal.Minute))
	const q = `EVENT Pairs WHEN SEQUENCE(INSTALL x, SHUTDOWN y, 12 hours)
WHERE {x.Machine_Id = y.Machine_Id} SC(each, consume)`
	p, err := plan.Compile(q)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m := consistency.NewMonitor(p.Stages[0].Clone(), consistency.Middle())
		for _, e := range delivered {
			m.Push(0, e)
		}
		m.Finish()
	}
	b.ReportMetric(float64(len(delivered))*float64(b.N)/b.Elapsed().Seconds(), "events/s")
}
func BenchmarkAblationSequenceSpecialized(b *testing.B) {
	pred := func(p event.Payload) bool {
		return event.ValueEqual(p["x.Machine_Id"], p["y.Machine_Id"])
	}
	seqBenchOp(b, func() operators.Op {
		op := algebra.NewSequenceOp([]string{"INSTALL", "SHUTDOWN"}, []string{"x", "y"},
			12*temporal.Hour, algebra.SCMode{Cons: algebra.Consume}, "Pairs")
		op.Pred = pred
		return op
	})
}

// Consumption: the §1 claim that SEQUENCE without consumption has
// multiplicative output.
func consumptionBench(b *testing.B, mode algebra.SCMode) {
	var src stream.Stream
	n := 64
	for i := 0; i < n; i++ {
		src = append(src,
			event.NewInsert(event.ID(2*i+1), "A", temporal.Time(2*i), temporal.Infinity, nil),
			event.NewInsert(event.ID(2*i+2), "B", temporal.Time(2*i+1), temporal.Infinity, nil))
	}
	expr := algebra.SequenceExpr{Kids: []algebra.Expr{
		algebra.TypeExpr{Type: "A", Alias: "a"}, algebra.TypeExpr{Type: "B", Alias: "b"},
	}, W: temporal.Duration(4 * n)}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		op := algebra.NewSequenceOp([]string{"A", "B"}, []string{"a", "b"},
			expr.W, mode, "out")
		total := 0
		for _, e := range src {
			total += len(op.Process(0, e))
		}
		if total == 0 {
			b.Fatal("no matches")
		}
	}
}

func BenchmarkAblationConsumptionReuse(b *testing.B) {
	consumptionBench(b, algebra.SCMode{})
}
func BenchmarkAblationConsumptionConsume(b *testing.B) {
	consumptionBench(b, algebra.SCMode{Cons: algebra.Consume})
}

// Alignment-buffer ablation: monitor fast path (in-order) vs repair path
// (every tenth event is a straggler).
func BenchmarkMonitorFastPath(b *testing.B) {
	src := workload.StockTicks(workload.DefaultTicks())
	delivered := delivery.Deliver(src, delivery.Ordered(5*temporal.Second))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		op := operators.NewSelect(func(event.Payload) bool { return true })
		consistency.RunStreams(op, consistency.Middle(), delivered)
	}
	b.ReportMetric(float64(len(delivered))*float64(b.N)/b.Elapsed().Seconds(), "events/s")
}

func BenchmarkMonitorRepairPath(b *testing.B) {
	src := workload.StockTicks(workload.DefaultTicks())
	delivered := delivery.Deliver(src,
		delivery.Disordered(5, 5*temporal.Second, 3*temporal.Second, 0.1))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		op := operators.NewSelect(func(event.Payload) bool { return true })
		consistency.RunStreams(op, consistency.Middle(), delivered)
	}
	b.ReportMetric(float64(len(delivered))*float64(b.N)/b.Elapsed().Seconds(), "events/s")
}

// --- Monitor scaling: events × straggler rate × consistency level ---

// BenchmarkMonitorScaling sweeps the consistency monitor across stream
// volume, disorder intensity and consistency level over the reusable
// high-volume workload generator, so hot-path regressions show up as a
// grid, not a single point. Stragglers are delayed by 30 events' worth of
// Sync time — deep enough to force snapshot-rollback repairs at repairing
// levels.
func BenchmarkMonitorScaling(b *testing.B) {
	levels := []struct {
		name string
		spec consistency.Spec
	}{
		{"strong", consistency.Strong()},
		{"middle", consistency.Middle()},
		{"weak", consistency.Weak(0)},
	}
	for _, events := range []int{1000, 4000} {
		cfg := workload.DefaultUniform()
		cfg.Events = events
		src := workload.UniformEvents(cfg)
		for _, stragglers := range []float64{0, 0.1, 0.3} {
			var dcfg delivery.Config
			if stragglers == 0 {
				dcfg = delivery.Ordered(20 * temporal.Duration(cfg.Spacing))
			} else {
				dcfg = delivery.Disordered(cfg.Seed, 100*temporal.Duration(cfg.Spacing),
					30*temporal.Duration(cfg.Spacing), stragglers)
			}
			delivered := delivery.Deliver(src, dcfg)
			for _, lv := range levels {
				name := fmt.Sprintf("events=%d/stragglers=%d%%/%s",
					events, int(stragglers*100), lv.name)
				b.Run(name, func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						op := operators.NewAggregate(operators.Count, "", "g")
						out, _ := consistency.RunStreams(op, lv.spec, delivered)
						if len(out) == 0 {
							b.Fatal("no output")
						}
					}
					b.ReportMetric(float64(len(delivered))*float64(b.N)/b.Elapsed().Seconds(), "events/s")
				})
			}
		}
	}
}

// Shard dimension: the same monitor-scaling workload executed by the
// key-partitioned parallel runtime (engine.RunShardedOp) across shard
// counts. The workload uses a wider group fan-out (64 keys) so partitions
// stay balanced; shards=1 measures the sharded runtime's overhead (router,
// tagging, merge) against the plain monitor numbers above.
func BenchmarkMonitorScalingSharded(b *testing.B) {
	cfg := workload.DefaultUniform()
	cfg.Events = 4000
	cfg.Groups = 64
	src := workload.UniformEvents(cfg)
	for _, stragglers := range []float64{0, 0.1} {
		var dcfg delivery.Config
		if stragglers == 0 {
			dcfg = delivery.Ordered(20 * temporal.Duration(cfg.Spacing))
		} else {
			dcfg = delivery.Disordered(cfg.Seed, 100*temporal.Duration(cfg.Spacing),
				30*temporal.Duration(cfg.Spacing), stragglers)
		}
		delivered := delivery.Deliver(src, dcfg)
		for _, shards := range []int{1, 2, 4, 8} {
			name := fmt.Sprintf("stragglers=%d%%/middle/shards=%d", int(stragglers*100), shards)
			b.Run(name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					out, _, err := engine.RunShardedOp(
						func() operators.Op { return operators.NewAggregate(operators.Count, "", "g") },
						consistency.Middle(), shards, engine.RouteByAttr("g", shards), delivered)
					if err != nil {
						b.Fatal(err)
					}
					if len(out) == 0 {
						b.Fatal("no output")
					}
				}
				b.ReportMetric(float64(len(delivered))*float64(b.N)/b.Elapsed().Seconds(), "events/s")
			})
		}
	}
}

// End-to-end sharded execution of the §3.1 query through the engine. The
// incremental matcher's per-event work depends on the affected key and
// its state expiry on what expired, not on the number of live keys, so
// splitting the keys across shards buys no per-event saving on one core:
// the sub-benchmarks chart the shard runtime's overhead there and its
// parallel gain on more cores.
func BenchmarkCIDR07Sharded(b *testing.B) {
	src, _ := workload.MachineEvents(workload.Machines{
		Seed: 1, Machines: 24, Cycles: 5,
		RestartDeadline: 5 * temporal.Minute, MissProb: 0.3,
		CycleGap: 30 * temporal.Minute,
	})
	delivered := delivery.Deliver(src, delivery.Ordered(10*temporal.Minute))
	const q = `
EVENT MissedRestart
WHEN UNLESS(SEQUENCE(INSTALL x, SHUTDOWN AS y, 12 hours), RESTART AS z, 5 minutes)
WHERE CorrelationKey(Machine_Id, EQUAL)
SC(each, consume)`
	for _, shards := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sys := New()
				query, err := sys.Register(q, WithSpec(Middle()), WithShards(shards))
				if err != nil {
					b.Fatal(err)
				}
				sys.Run(delivered)
				if len(query.Alerts()) == 0 {
					b.Fatal("no alerts")
				}
			}
			b.ReportMetric(float64(len(delivered))*float64(b.N)/b.Elapsed().Seconds(), "events/s")
		})
	}
}

// --- Infrastructure ---

func BenchmarkCompileQuery(b *testing.B) {
	const q = `
EVENT MissedRestart
WHEN UNLESS(SEQUENCE(INSTALL x, SHUTDOWN AS y, 12 hours), RESTART AS z, 5 minutes)
WHERE {x.Machine_Id = y.Machine_Id} AND {x.Machine_Id = z.Machine_Id}
SC(each, consume) CONSISTENCY middle`
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := plan.Compile(q); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDeliverySimulator(b *testing.B) {
	src := workload.StockTicks(workload.DefaultTicks())
	cfg := delivery.Disordered(9, 10*temporal.Second, 5*temporal.Second, 0.3)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if out := delivery.Deliver(src, cfg); len(out) == 0 {
			b.Fatal("empty")
		}
	}
}

func BenchmarkJoinThroughput(b *testing.B) {
	ticks := workload.StockTicks(workload.DefaultTicks())
	news := workload.NewsEvents(workload.DefaultNews())
	dt := delivery.Deliver(ticks, delivery.Ordered(10*temporal.Second))
	dn := delivery.Deliver(news, delivery.Ordered(10*temporal.Second))
	theta := func(l, r event.Payload) bool { return event.ValueEqual(l["symbol"], r["symbol"]) }
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		op := operators.NewJoin(theta)
		consistency.RunStreams(op, consistency.Middle(), dt, dn)
	}
}
