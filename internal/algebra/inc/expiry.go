package inc

import (
	"repro/internal/algebra"
	"repro/internal/event"
	"repro/internal/temporal"
)

// Time-ordered expiry indexes: the paper's cleanup rule says state whose
// occurrence time lies below the horizon can never contribute again, so
// expiring it should cost O(expired), not O(live). Every prunable map —
// the Op's available and consumed stores (one index over both: an event
// moving between them keeps its occurrence time and so its entry), its
// emitted table, and each leaf's live set — carries an expiryIndex over
// its entries' expiry times, and a prune pops entries off the index until
// its minimum reaches the horizon instead of ranging the map.
//
// The index is a binary min-heap of (time, ID) pairs with lazy deletion: a
// map delete leaves its entry behind, and a popped entry is validated
// against the map (the ID must still be present with an expiry time below
// the horizon) before anything is deleted. The invariant every mutation
// keeps is one-sided: each live map entry has an index entry with its
// current time. So the index minimum is a lower bound on the live minimum,
// which is all the prune gates need.
//
// Under the undo journal the heap itself is not journaled. Undoing a map
// delete or overwrite re-pushes the restored entry (the appenders carry
// the index in the record's kv field), which re-establishes the invariant;
// undoing an insert leaves a stale entry, which is harmless. To stay
// O(live) in memory under rollback-and-replay churn and removal bursts,
// an index holding more than 2·live+expirySlack entries is rebuilt from its
// map by the mutation that took it there (the Op's event index, whose
// undo records span two maps, is refit once at the end of a rollback) —
// amortized O(1), since getting there again takes at least live further
// pushes or live/2 further deletes.
type expiryIndex struct {
	h []expiryEntry
}

type expiryEntry struct {
	t  temporal.Time
	id event.ID
}

// expirySlack keeps small maps from rebuilding their index on every
// stale entry.
const expirySlack = 64

func (a expiryEntry) before(b expiryEntry) bool {
	if a.t != b.t {
		return a.t < b.t
	}
	return a.id < b.id
}

// min is a lower bound on the expiry times of the map's live entries, or
// Infinity when the index is empty.
func (x *expiryIndex) min() temporal.Time {
	if len(x.h) == 0 {
		return temporal.Infinity
	}
	return x.h[0].t
}

func (x *expiryIndex) push(t temporal.Time, id event.ID) {
	e := expiryEntry{t: t, id: id}
	h := append(x.h, e)
	// Streams arrive mostly in time order, so the new entry usually stays
	// where it lands: one comparison.
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !e.before(h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = e
	x.h = h
}

// pop removes and returns the minimum entry; the index must be non-empty.
func (x *expiryIndex) pop() expiryEntry {
	h := x.h
	top := h[0]
	n := len(h) - 1
	last := h[n]
	h = h[:n]
	if n > 0 {
		siftDown(h, 0, last)
	}
	x.h = h
	return top
}

// siftDown places e at slot i of h (whose old entry is vacated) and moves
// it down to its heap position.
func siftDown(h []expiryEntry, i int, e expiryEntry) {
	n := len(h)
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && h[c+1].before(h[c]) {
			c++
		}
		if !h[c].before(e) {
			break
		}
		h[i] = h[c]
		i = c
	}
	h[i] = e
}

func (x *expiryIndex) clone() expiryIndex {
	return expiryIndex{h: append([]expiryEntry(nil), x.h...)}
}

// oversized reports whether stale entries dominate the index of a map
// holding live entries; its owner then rebuilds it.
func (x *expiryIndex) oversized(live int) bool {
	return len(x.h) > 2*live+expirySlack
}

// fitMatches restores the size bound after a mutation of the indexed map m.
func (x *expiryIndex) fitMatches(m map[event.ID]algebra.Match) {
	if x.oversized(len(m)) {
		x.rebuildMatches(m)
	}
}

// rebuildEvents and rebuildMatches rebuild the index from the live entries
// of its maps, reusing its backing array, in O(live).
func (x *expiryIndex) rebuildEvents(a, b map[event.ID]event.Event) {
	h := x.h[:0]
	for id, e := range a {
		h = append(h, expiryEntry{t: eventExpiry(&e), id: id})
	}
	for id, e := range b {
		h = append(h, expiryEntry{t: eventExpiry(&e), id: id})
	}
	x.heapify(h)
}

func (x *expiryIndex) rebuildMatches(m map[event.ID]algebra.Match) {
	h := x.h[:0]
	for id, mt := range m {
		h = append(h, expiryEntry{t: matchExpiry(&mt), id: id})
	}
	x.heapify(h)
}

// heapify makes h the index's heap, ordering it bottom-up in O(len(h)).
func (x *expiryIndex) heapify(h []expiryEntry) {
	for i := len(h)/2 - 1; i >= 0; i-- {
		siftDown(h, i, h[i])
	}
	x.h = h
}

// eventExpiry is an event's expiry time: its occurrence time.
func eventExpiry(e *event.Event) temporal.Time { return e.V.Start }

// matchExpiry is a match's expiry time: its last contributor's occurrence
// time. For a leaf's primitive match that is its own occurrence time.
func matchExpiry(m *algebra.Match) temporal.Time { return m.LastVs }
