//go:build !race

package consistency

import (
	"testing"

	"repro/internal/algebra"
	"repro/internal/algebra/inc"
	"repro/internal/delivery"
	"repro/internal/event"
	"repro/internal/operators"
	"repro/internal/temporal"
	"repro/internal/workload"
)

// TestAllocsMonitorFastPath pins the allocation ceiling of the monitor's
// in-order push path (binary-insertion buffer, head-indexed log,
// incremental checkpoint): a regression back toward per-push copying fails
// the ordinary test run, not just the benchmark gate. The bound is ~2× the
// measured steady state. (Skipped under -race: instrumentation changes
// allocation counts.)
func TestAllocsMonitorFastPath(t *testing.T) {
	src := workload.StockTicks(workload.DefaultTicks())
	delivered := delivery.Deliver(src, delivery.Ordered(5*temporal.Second))

	perEvent := testing.AllocsPerRun(5, func() {
		op := operators.NewSelect(func(event.Payload) bool { return true })
		m := NewMonitor(op, Middle())
		for _, e := range delivered {
			m.Push(0, e)
		}
		m.Finish()
	}) / float64(len(delivered))

	const ceiling = 3.0
	t.Logf("monitor fast path: %.2f allocs/event over %d delivered items (ceiling %.0f)",
		perEvent, len(delivered), ceiling)
	if perEvent > ceiling {
		t.Fatalf("monitor fast path allocates %.2f/event, above the pinned ceiling %.0f", perEvent, ceiling)
	}
}

// TestAllocsVersionedCheckpointCapture pins the cost of the versioned
// checkpoint path: every admitted item takes an O(1) journal mark and every
// net-fact mutation an undo entry, never a clone of the operator or a copy
// of the net-fact table. The proof is differential: the same inc.Op runs
// once behind a Middle monitor and once driven bare (Advance then Process
// per item, as the monitor drives it), and the per-event difference — the
// monitor's whole cost, marks and journals included — must stay a small
// constant, independent of the matcher's live state. Under the old
// clone-and-replay scheme every capture deep-copied the matcher's stores,
// costing tens of allocations per event on this workload.
func TestAllocsVersionedCheckpointCapture(t *testing.T) {
	expr := algebra.SequenceExpr{Kids: []algebra.Expr{
		algebra.TypeExpr{Type: "E", Alias: "a"},
		algebra.TypeExpr{Type: "E", Alias: "b"},
	}, W: 50}
	src := make([]event.Event, 0, 600)
	at := temporal.Time(0)
	for i := 0; i < 600; i++ {
		at = at.Add(temporal.Duration(i%5 + 1))
		src = append(src, event.NewInsert(event.ID(i+1), "E", at,
			temporal.Infinity, event.Payload{"i": int64(i)}))
	}
	delivered := delivery.Deliver(src, delivery.Ordered(20))

	perEvent := func(drive func(op *inc.Op)) float64 {
		return testing.AllocsPerRun(5, func() {
			drive(inc.NewOp(expr, algebra.SCMode{}, "out"))
		}) / float64(len(delivered))
	}
	bare := perEvent(func(op *inc.Op) {
		for _, e := range delivered {
			op.Advance(e.Sync())
			if !e.IsCTI() {
				op.Process(0, e)
			}
		}
		op.Advance(temporal.Infinity)
	})
	monitored := perEvent(func(op *inc.Op) {
		m := NewMonitor(op, Middle())
		for _, e := range delivered {
			m.Push(0, e)
		}
		m.Finish()
	})
	overhead := monitored - bare

	const ceiling = 3.0
	t.Logf("versioned monitor: %.2f allocs/event, bare operator %.2f — monitor overhead %.2f/event (ceiling %.0f)",
		monitored, bare, overhead, ceiling)
	if overhead > ceiling {
		t.Fatalf("the versioned monitor adds %.2f allocs/event over the bare operator (%.2f vs %.2f), above the pinned ceiling %.0f — checkpoint capture is no longer O(changed)", overhead, monitored, bare, ceiling)
	}
}
