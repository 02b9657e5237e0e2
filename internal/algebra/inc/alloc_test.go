//go:build !race

package inc

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/algebra"
	"repro/internal/event"
	"repro/internal/temporal"
)

// Allocation-regression tests: the tentpole claim of the interned-payload /
// per-group-commit design is that the incremental sequence hot path stays
// allocation-lean — a few allocations per event, not a few dozen. These
// ceilings pin that property in `go test ./...` itself, so an allocation
// regression fails the ordinary test run, not just the benchmark gate.
// The bounds sit ~1.5–3× above the measured steady state, loose enough
// for map rehash jitter across Go releases, tight enough to catch a
// return to per-delta allocation (a fresh-cache run measures ~29/event;
// the interned replay ~8). (Skipped under -race: instrumentation changes
// allocation counts.)

// allocSeqEvents builds an INSTALL/SHUTDOWN workload shaped like the
// sequence-ablation benchmark: interleaved pairs over a small key domain.
func allocSeqEvents(n int) []event.Event {
	rng := rand.New(rand.NewSource(7))
	types := []string{"INSTALL", "SHUTDOWN"}
	out := make([]event.Event, 0, n)
	vs := temporal.Time(0)
	for i := 0; i < n; i++ {
		vs += temporal.Time(rng.Intn(3) + 1)
		out = append(out, event.NewInsert(event.ID(i+1), types[i%2], vs,
			temporal.Infinity, event.Payload{
				"Machine_Id": fmt.Sprintf("m%d", rng.Intn(4)),
			}))
	}
	return out
}

func allocSeqExpr() algebra.Expr {
	return algebra.FilterExpr{
		Kid: algebra.SequenceExpr{Kids: []algebra.Expr{
			algebra.TypeExpr{Type: "INSTALL", Alias: "x"},
			algebra.TypeExpr{Type: "SHUTDOWN", Alias: "y"},
		}, W: 64},
		Pred: func(p event.Payload) bool {
			return event.ValueEqual(p["x.Machine_Id"], p["y.Machine_Id"])
		},
	}
}

// measureSeqHotPath reports allocs/event on the hot path proper: the
// replay the monitor's checkpoint operator performs. Every event was
// already derived once by the live operator, so the interning caches
// (shared through Clone) serve every leaf payload and combined composite.
// Warm the caches through one full pass, then measure replays by clones
// taken from the pre-stream snapshot — each run sees warmed caches and
// empty state, exactly like the checkpoint chasing the live operator.
func measureSeqHotPath(events []event.Event, opts ...OpOption) float64 {
	mode := algebra.SCMode{Cons: algebra.Consume}
	base := NewOp(allocSeqExpr(), mode, "Pairs", opts...)
	snapshot := base.Clone()
	run := func(op *Op) {
		for i, e := range events {
			op.Process(0, e)
			if i%16 == 15 {
				op.Advance(e.V.Start)
			}
		}
	}
	run(base)
	return testing.AllocsPerRun(5, func() {
		run(snapshot.Clone().(*Op))
	}) / float64(len(events))
}

func TestAllocsSequenceHotPath(t *testing.T) {
	perEvent := measureSeqHotPath(allocSeqEvents(400))
	const ceiling = 12.0
	t.Logf("incremental sequence hot path: %.2f allocs/event (ceiling %.0f)", perEvent, ceiling)
	if perEvent > ceiling {
		t.Fatalf("incremental sequence hot path allocates %.2f/event, above the pinned ceiling %.0f — the interned-payload/scratch-delta discipline regressed", perEvent, ceiling)
	}
}

// TestAllocsCOWClone pins Clone's copy-on-write promise: cloning an
// operator with live state is a handle copy — one small struct — not a deep
// copy of stores, indexes, and pending lists. The deep copy happens lazily
// on the first mutation (ensureOwned), so a chain of clones that never
// diverges stays O(1) per clone regardless of state size.
func TestAllocsCOWClone(t *testing.T) {
	mode := algebra.SCMode{Cons: algebra.Consume}
	op := NewOp(allocSeqExpr(), mode, "Pairs")
	for i, e := range allocSeqEvents(400) {
		op.Process(0, e)
		if i%16 == 15 {
			op.Advance(e.V.Start)
		}
	}
	var sink *Op
	perClone := testing.AllocsPerRun(100, func() {
		sink = op.Clone().(*Op)
	})
	_ = sink
	const ceiling = 4.0
	t.Logf("COW clone: %.2f allocs/clone at state size %d (ceiling %.0f)",
		perClone, op.StateSize(), ceiling)
	if perClone > ceiling {
		t.Fatalf("Clone allocates %.2f per call at state size %d, above the pinned ceiling %.0f — the lazy copy-on-write path regressed to an eager deep copy", perClone, op.StateSize(), ceiling)
	}
}

// TestAllocsJournalMark pins the Versioned capture cost: with the undo
// journal on, Mark is a barrier append — O(changed since the last mark),
// never O(state). At several hundred stored events a regression back to
// snapshot-by-copy would show up as hundreds of allocations per mark; the
// ceiling admits only the amortized journal-spine growth.
func TestAllocsJournalMark(t *testing.T) {
	mode := algebra.SCMode{Cons: algebra.Consume}
	op := NewOp(allocSeqExpr(), mode, "Pairs")
	op.Mark() // turn the journal on before state accumulates
	for i, e := range allocSeqEvents(400) {
		op.Process(0, e)
		if i%16 == 15 {
			op.Advance(e.V.Start)
		}
	}
	perMark := testing.AllocsPerRun(200, func() {
		op.Mark()
	})
	const ceiling = 3.0
	t.Logf("journal mark: %.2f allocs/mark at state size %d (ceiling %.0f)",
		perMark, op.StateSize(), ceiling)
	if perMark > ceiling {
		t.Fatalf("Mark allocates %.2f per call at state size %d, above the pinned ceiling %.0f — checkpoint capture is no longer O(changed)", perMark, op.StateSize(), ceiling)
	}
}

// TestAllocsKeyedSequenceHotPath pins the same replay path with
// correlation-key pushdown enabled: the key-indexed join must not cost
// steady-state allocations beyond the flat path's — bucket lookups and the
// key extraction are allocation-free, and buckets themselves amortize to
// nothing once every key's bucket exists. The ceiling matches the flat
// path's; the measured value sits well under it (~6.4/event vs ~5.8 flat).
func TestAllocsKeyedSequenceHotPath(t *testing.T) {
	perEvent := measureSeqHotPath(allocSeqEvents(400), WithJoinKey("Machine_Id"))
	const ceiling = 12.0
	t.Logf("keyed sequence hot path: %.2f allocs/event (ceiling %.0f)", perEvent, ceiling)
	if perEvent > ceiling {
		t.Fatalf("keyed sequence hot path allocates %.2f/event, above the pinned ceiling %.0f — the key-indexed join path regressed", perEvent, ceiling)
	}
}

// TestAllocsSteadyStateAdvance pins the expiry path's allocation cost. The
// stream is shaped so matching derives nothing new once the interning
// caches are warm: only position 0 of the SEQUENCE ever fills, so no
// composite is built and nothing is emitted. What remains per event is the
// expiry path itself — the store and leaf index pushes in Process, and an
// Advance that moves the horizon with every event and pops what expired
// from the store, the leaf and the join list. Index storage must amortize
// to nothing once the window is steady.
func TestAllocsSteadyStateAdvance(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	events := make([]event.Event, 3000)
	vs := temporal.Time(0)
	for i := range events {
		vs += temporal.Time(rng.Intn(3) + 1)
		typ := "INSTALL"
		if i%4 == 3 {
			typ = "RESTART" // outside the expression: store only
		}
		events[i] = event.NewInsert(event.ID(i+1), typ, vs, temporal.Infinity,
			event.Payload{"Machine_Id": fmt.Sprintf("m%d", rng.Intn(64))})
	}
	base := NewOp(allocSeqExpr(), algebra.SCMode{}, "Pairs")
	snapshot := base.Clone()
	step := func(op *Op, e event.Event) {
		op.Process(0, e)
		op.Advance(e.V.Start)
	}
	// Warm the interning caches, then bring a fresh clone to steady state.
	for _, e := range events {
		step(base, e)
	}
	op := snapshot.Clone().(*Op)
	half := len(events) / 2
	for _, e := range events[:half] {
		step(op, e)
	}
	next := half
	perEvent := testing.AllocsPerRun(half-1, func() {
		step(op, events[next])
		next++
	})
	t.Logf("steady-state Process+Advance: %.2f allocs/event at state size %d", perEvent, op.StateSize())
	if perEvent > 0 {
		t.Fatalf("steady-state Process+Advance allocates %.2f/event; the expiry path must amortize its index storage to zero", perEvent)
	}
}
