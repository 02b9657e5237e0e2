package consistency

import (
	"fmt"
	"testing"

	"repro/internal/algebra"
	"repro/internal/algebra/inc"
	"repro/internal/event"
	"repro/internal/operators"
	"repro/internal/temporal"
)

// countingVersioned forwards an operators.Versioned and counts the calls a
// repair makes.
type countingVersioned struct {
	operators.Versioned
	process, rollback int
}

func (c *countingVersioned) Process(port int, e event.Event) []event.Event {
	c.process++
	return c.Versioned.Process(port, e)
}

func (c *countingVersioned) Rollback(v operators.Version) bool {
	c.rollback++
	return c.Versioned.Rollback(v)
}

// TestRepairRewindsToStraggler pins the versioned repair's shape: a
// straggler landing d items before the end of the live window rolls the
// operator back exactly once, to the state just before the straggler, and
// replays exactly the straggler and the d items after it — no snapshot
// slack before it, wherever it lands.
func TestRepairRewindsToStraggler(t *testing.T) {
	expr := algebra.SequenceExpr{Kids: []algebra.Expr{
		algebra.TypeExpr{Type: "E", Alias: "a"},
		algebra.TypeExpr{Type: "E", Alias: "b"},
	}, W: 30}
	const n = 60
	for _, d := range []int{1, 5, 23, 24, 37, n} {
		t.Run(fmt.Sprintf("depth %d", d), func(t *testing.T) {
			op := &countingVersioned{Versioned: inc.NewOp(expr, algebra.SCMode{}, "out")}
			m := NewMonitor(op, Middle())
			push := func(id int, vs temporal.Time, arrival temporal.Time) {
				e := event.NewInsert(event.ID(id), "E", vs, vs.Add(40), event.Payload{"i": int64(id)})
				e.C = temporal.From(arrival)
				m.Push(0, e)
			}
			// n in-order items at valid times 10, 20, ..., and no guarantee,
			// so all of them stay in the live window.
			for i := 1; i <= n; i++ {
				push(i, temporal.Time(10*i), temporal.Time(i))
			}
			op.process, op.rollback = 0, 0
			// Valid time 10*(n-d)+5 sorts just before the last d items.
			push(n+1, temporal.Time(10*(n-d)+5), temporal.Time(n+1))
			if got := m.Metrics().Replays; got != 1 {
				t.Fatalf("straggler took %d replays, want 1", got)
			}
			if op.rollback != 1 || op.process != d+1 {
				t.Fatalf("repair at depth %d: %d rollbacks and %d Process calls, want 1 and %d",
					d, op.rollback, op.process, d+1)
			}
		})
	}
}
