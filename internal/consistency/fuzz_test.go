package consistency

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/algebra"
	"repro/internal/algebra/inc"
	"repro/internal/delivery"
	"repro/internal/event"
	"repro/internal/operators"
	"repro/internal/stream"
	"repro/internal/temporal"
)

// fuzzSource draws n items over types A, B and C with a small key space,
// about a tenth of them retractions (partial or full) of earlier inserts,
// sorted by Sync.
func fuzzSource(rng *rand.Rand, n int) stream.Stream {
	s := make(stream.Stream, 0, n)
	var ins []event.Event
	at := temporal.Time(0)
	for i := 0; i < n; i++ {
		if len(ins) > 0 && rng.Intn(10) == 0 {
			e := ins[rng.Intn(len(ins))]
			if e.V.End != temporal.Infinity && e.V.End > e.V.Start {
				cut := e.V.Start.Add(temporal.Duration(rng.Int63n(int64(e.V.End - e.V.Start))))
				s = append(s, event.NewRetract(e.ID, e.Type, e.V.Start, cut, e.Payload))
				continue
			}
		}
		at = at.Add(temporal.Duration(rng.Intn(6)))
		ve := at.Add(temporal.Duration(rng.Intn(30) + 1))
		if rng.Intn(10) == 0 {
			ve = temporal.Infinity
		}
		e := event.NewInsert(event.ID(i+1), string(rune('A'+rng.Intn(3))), at, ve, event.Payload{
			"k": int64(rng.Intn(3)),
			"x": float64(rng.Intn(40)) / 4,
		})
		ins = append(ins, e)
		s = append(s, e)
	}
	return s.SortBySync()
}

// fuzzLevel maps fuzz bytes onto Middle, Weak(m) and Level(b, m) (m = 255:
// unbounded memory).
func fuzzLevel(level, b, m uint8) Spec {
	mem := temporal.Duration(m)
	if m == 255 {
		mem = Unbounded
	}
	switch level % 3 {
	case 0:
		return Middle()
	case 1:
		return Weak(mem)
	default:
		return Level(temporal.Duration(b%40), mem)
	}
}

// FuzzMonitorVsReference is the monitor-equivalence property under
// coverage-guided input: a fuzzed stream, disorder, punctuation period and
// consistency level (optionally switched mid-stream), driven through the
// live monitor over the incremental pattern operator (versioned repair)
// and over an aggregate (legacy snapshot repair), must match the frozen
// reference monitor output for output, net-fact table for table, and in
// every Metrics field. The committed seeds run under plain `go test`.
func FuzzMonitorVsReference(f *testing.F) {
	f.Add(int64(1), uint8(120), uint8(60), uint8(20), uint8(0), uint8(0), uint8(255), uint8(0), uint8(0))
	f.Add(int64(2), uint8(200), uint8(200), uint8(35), uint8(0), uint8(0), uint8(255), uint8(1), uint8(0))
	f.Add(int64(3), uint8(150), uint8(90), uint8(12), uint8(1), uint8(0), uint8(30), uint8(0), uint8(0))
	f.Add(int64(4), uint8(90), uint8(255), uint8(50), uint8(1), uint8(0), uint8(0), uint8(1), uint8(0))
	f.Add(int64(5), uint8(180), uint8(140), uint8(25), uint8(2), uint8(9), uint8(45), uint8(0), uint8(0))
	f.Add(int64(6), uint8(160), uint8(170), uint8(8), uint8(2), uint8(15), uint8(255), uint8(1), uint8(0))
	f.Add(int64(7), uint8(140), uint8(110), uint8(30), uint8(0), uint8(0), uint8(255), uint8(1), uint8(2))
	f.Add(int64(8), uint8(170), uint8(230), uint8(0), uint8(0), uint8(0), uint8(255), uint8(0), uint8(5))

	seqAB := algebra.SequenceExpr{Kids: []algebra.Expr{
		algebra.TypeExpr{Type: "A", Alias: "a"},
		algebra.TypeExpr{Type: "B", Alias: "b"},
	}, W: 20}
	shapes := []algebra.Expr{
		seqAB,
		algebra.UnlessExpr{A: seqAB, B: algebra.TypeExpr{Type: "C", Alias: "c"}, W: 6,
			Corr: func(pos, neg event.Payload) bool { return event.ValueEqual(pos["a.k"], neg["c.k"]) }},
	}
	f.Fuzz(func(t *testing.T, seed int64, n, disorder, cti, level, b, m, shape, switchTo uint8) {
		rng := rand.New(rand.NewSource(seed))
		src := fuzzSource(rng, 20+int(n))
		delivered := delivery.Deliver(src, delivery.Config{Seed: seed,
			Latency: delivery.Latency{Base: 1, Jitter: temporal.Duration(disorder % 32),
				StragglerProb: float64(disorder) / 512, StragglerDelay: temporal.Duration(disorder%90) + 5},
			CTIPeriod: temporal.Duration(cti)})
		spec := fuzzLevel(level, b, m)
		switchAt, to := 0, Spec{}
		if switchTo > 0 {
			switchAt, to = len(delivered)/2, fuzzLevel(switchTo, m, b)
		}
		expr := shapes[int(shape)%len(shapes)]
		ops := []struct {
			name string
			mk   func() operators.Op
		}{
			{"inc", func() operators.Op { return inc.NewOp(expr, algebra.SCMode{}, "out") }},
			{"count-by-k", func() operators.Op { return operators.NewAggregate(operators.Count, "", "k") }},
		}
		for _, o := range ops {
			label := fmt.Sprintf("%s level %s", o.name, spec.Name())
			runBoth(t, label, NewMonitor(o.mk(), spec), newRefMonitor(o.mk(), spec), delivered, switchAt, to)
		}
	})
}
