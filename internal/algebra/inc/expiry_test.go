package inc

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/algebra"
	"repro/internal/event"
	"repro/internal/temporal"
)

// checkExpiryIndexes asserts the expiry-index invariants on every indexed
// map of p — the Op's store ∪ consumed and emitted tables and each leaf's
// live set: the heap is ordered, every live entry has an index entry at
// its current expiry time (so the index minimum is at or below the true
// minimum), and the index holds at most 2·live+expirySlack entries.
// checkStep calls it after every step of the differential, rollback and
// fuzz drivers.
func checkExpiryIndexes(t *testing.T, label string, p *Op) {
	t.Helper()
	events := make(map[event.ID]event.Event, len(p.store)+len(p.consumed))
	for id, e := range p.store {
		events[id] = e
	}
	for id, e := range p.consumed {
		if _, dup := events[id]; dup {
			t.Fatalf("%s: event %d both available and consumed", label, id)
		}
		events[id] = e
	}
	checkIndex(t, label+" store∪consumed", &p.evIdx, events, eventExpiry)
	checkIndex(t, label+" emitted", &p.emitIdx, p.emitted, matchExpiry)
	n := 0
	forEachLeaf(p.root, func(l *leafNode) {
		checkIndex(t, fmt.Sprintf("%s leaf#%d(%s)", label, n, l.t.Type), &l.idx, l.live,
			func(m *algebra.Match) temporal.Time { return m.V.Start })
		n++
	})
}

func checkIndex[V any](t *testing.T, label string, x *expiryIndex, m map[event.ID]V,
	at func(*V) temporal.Time) {
	t.Helper()
	for i := 1; i < len(x.h); i++ {
		if x.h[i].before(x.h[(i-1)/2]) {
			t.Fatalf("%s: heap order broken at slot %d: %v above %v", label, i, x.h[(i-1)/2], x.h[i])
		}
	}
	if bound := 2*len(m) + expirySlack; len(x.h) > bound {
		t.Fatalf("%s: index holds %d entries for %d live (bound %d)", label, len(x.h), len(m), bound)
	}
	have := make(map[expiryEntry]bool, len(x.h))
	for _, e := range x.h {
		have[e] = true
	}
	low := temporal.Infinity
	for id, v := range m {
		tm := at(&v)
		if !have[expiryEntry{t: tm, id: id}] {
			t.Fatalf("%s: live entry %d at %d has no index entry", label, id, tm)
		}
		if tm < low {
			low = tm
		}
	}
	if x.min() > low {
		t.Fatalf("%s: index minimum %d above the live minimum %d", label, x.min(), low)
	}
}

// forEachLeaf visits the tree's leaves in a fixed order.
func forEachLeaf(n node, fn func(*leafNode)) {
	switch x := n.(type) {
	case *leafNode:
		fn(x)
	case *filterNode:
		forEachLeaf(x.kid, fn)
	case *seqNode:
		for _, k := range x.kids {
			forEachLeaf(k, fn)
		}
	case *atLeastNode:
		for _, k := range x.kids {
			forEachLeaf(k, fn)
		}
	case *atMostNode:
		for _, k := range x.kids {
			forEachLeaf(k, fn)
		}
	case *negNode:
		forEachLeaf(x.pos, fn)
		forEachLeaf(x.neg, fn)
	default:
		panic(fmt.Sprintf("forEachLeaf: unknown node %T", n))
	}
}

// TestExpiryIndexPopOrder drives the heap directly: entries pushed in any
// order come back in (time, ID) order, and a rebuild keeps exactly the
// map's live entries.
func TestExpiryIndexPopOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var x expiryIndex
	var want []expiryEntry
	for i := 0; i < 500; i++ {
		e := expiryEntry{t: temporal.Time(rng.Intn(100)), id: event.ID(rng.Intn(1000))}
		x.push(e.t, e.id)
		want = append(want, e)
	}
	sort.Slice(want, func(i, j int) bool { return want[i].before(want[j]) })
	for i, w := range want {
		if got := x.pop(); got != w {
			t.Fatalf("pop %d: got %v want %v", i, got, w)
		}
	}
	if x.min() != temporal.Infinity {
		t.Fatalf("drained index reports minimum %d", x.min())
	}

	live := map[event.ID]event.Event{}
	for i := 0; i < 300; i++ {
		id := event.ID(i)
		x.push(temporal.Time(i%7), id)
		if i%3 == 0 {
			live[id] = event.NewInsert(id, "A", temporal.Time(i%7), temporal.Infinity, nil)
		}
	}
	if !x.oversized(len(live)) {
		t.Fatalf("%d entries for %d live not reported oversized", len(x.h), len(live))
	}
	x.rebuildEvents(live, nil)
	if len(x.h) != len(live) {
		t.Fatalf("rebuild kept %d entries for %d live", len(x.h), len(live))
	}
	checkIndex(t, "rebuilt", &x, live, eventExpiry)
}

// TestExpiryIndexChurn drives the monitor's repair cycle — Mark, a burst of
// Process/Advance, Rollback, replay of the same burst — 250 times over a
// keyed CIDR-shaped operator whose wide window keeps on the order of a
// hundred events live. Every rolled-back insert leaves a stale index entry
// and every replay pushes a fresh one, so without the rebuild rule each
// index would hold one entry per replay of every event still in scope.
// Each index must stay within 2·live+expirySlack at every step, and the
// rolled-back-and-replayed operator must end byte-identical to a twin that
// ran the stream once.
func TestExpiryIndexChurn(t *testing.T) {
	expr := algebra.UnlessExpr{
		A: algebra.FilterExpr{Kid: algebra.SequenceExpr{
			Kids: []algebra.Expr{typ("A", "x"), typ("B", "y")}, W: 400}, Pred: eqOnKey("k")},
		B: typ("C", "z"), W: 5, Corr: corrKeyEqual("k"), CorrKey: "k",
	}
	mode := algebra.SCMode{Cons: algebra.Consume}
	rng := rand.New(rand.NewSource(5))
	events := genDistEvents(rng, 3000, keyDist{keys: 24})

	churned := NewOp(expr, mode, "out", WithJoinKey("k"))
	twin := NewOp(expr, mode, "out", WithJoinKey("k"))
	check := func(label string) {
		t.Helper()
		checkExpiryIndexes(t, label, churned)
	}
	drive := func(op *Op, burst []event.Event) []event.Event {
		var outs []event.Event
		for _, e := range burst {
			outs = append(outs, op.Process(0, e)...)
			outs = append(outs, op.Advance(e.V.Start)...)
		}
		return outs
	}

	const burstLen = 12
	for i, cycle := 0, 0; i < len(events); i, cycle = i+burstLen, cycle+1 {
		burst := events[i:min(i+burstLen, len(events))]
		v := churned.Mark()
		drive(churned, burst)
		check(fmt.Sprintf("cycle %d forward", cycle))
		// Replay several times: repeated repairs to one snapshot are the
		// worst case for stale entries.
		const replays = 3
		for r := 0; r < replays; r++ {
			if !churned.Rollback(v) {
				t.Fatalf("cycle %d: rollback refused", cycle)
			}
			check(fmt.Sprintf("cycle %d rollback %d", cycle, r))
			got := drive(churned, burst)
			check(fmt.Sprintf("cycle %d replay %d", cycle, r))
			if r == replays-1 {
				want := drive(twin, burst)
				if !eventsEqual(got, want) {
					t.Fatalf("cycle %d: replay diverged from the twin\n twin: %v\n  got: %v", cycle, want, got)
				}
			}
		}
		if cycle%8 == 7 {
			churned.Compact(v)
		}
	}
	if churned.StateSize() != twin.StateSize() {
		t.Fatalf("state size diverged: churned %d twin %d", churned.StateSize(), twin.StateSize())
	}
	fin, want := churned.Advance(temporal.Infinity), twin.Advance(temporal.Infinity)
	if !eventsEqual(fin, want) {
		t.Fatalf("finish diverged\n twin: %v\n  got: %v", want, fin)
	}
	check("finish")
}
