package inc

import (
	"sort"

	"repro/internal/algebra"
	"repro/internal/event"
	"repro/internal/temporal"
)

// atMostNode matches ATMOST(n, E1, ..., Ek, w): every contributor match b
// is an anchor, qualifying iff at most n contributors (b included) occur in
// [b.Vs, b.Vs+w). Each arrival or departure at time t only shifts the
// counts of anchors whose window contains t, so transitions are O(affected
// anchors) per delta. Duplicate parameter positions contribute duplicate
// entries (each raising the counts, as the denotational evaluator's
// concatenation does); outputs are reference-counted per anchor ID.
type atMostNode struct {
	n    int
	w    temporal.Duration
	kids []node
	// entries: every live contributor match, sorted by (Vs, ID); cnt is
	// the number of entries in [Vs, Vs+w).
	entries []amEntry
	outs    map[event.ID]algebra.Match
	refs    map[event.ID]int
	kd      delta // reusable child-transition scratch
	u       *undoLog
}

type amEntry struct {
	m   algebra.Match
	cnt int
}

// newAtMostNode builds the window counter. Its kids arrive with a frozen
// build context (see buildCtx): the counts below are over the kid output
// sets themselves, so key pushdown must not prune them.
func newAtMostNode(e algebra.AtMostExpr, sh *shared, ctx buildCtx) *atMostNode {
	a := &atMostNode{
		n:    e.N,
		w:    e.W,
		outs: map[event.ID]algebra.Match{},
		refs: map[event.ID]int{},
		u:    sh.u,
	}
	for _, k := range e.Kids {
		a.kids = append(a.kids, build(k, sh, ctx))
	}
	return a
}

func (a *atMostNode) push(e event.Event, out *delta) {
	for _, k := range a.kids {
		a.kd.reset()
		k.push(e, &a.kd)
		a.apply(out)
	}
}

func (a *atMostNode) remove(id event.ID, out *delta) {
	for _, k := range a.kids {
		a.kd.reset()
		k.remove(id, &a.kd)
		a.apply(out)
	}
}

func (a *atMostNode) prune(horizon temporal.Time, out *delta) {
	for _, k := range a.kids {
		a.kd.reset()
		k.prune(horizon, &a.kd)
		a.apply(out)
	}
}

// lowerBound is the first index with Vs >= t.
func (a *atMostNode) lowerBound(t temporal.Time) int {
	return sort.Search(len(a.entries), func(i int) bool { return a.entries[i].m.V.Start >= t })
}

func (a *atMostNode) apply(out *delta) {
	for _, it := range a.kd.items {
		t := it.m.V.Start
		if it.del {
			// Drop one entry with this identity.
			i := a.lowerBound(t)
			for i < len(a.entries) && !(a.entries[i].m.ID == it.m.ID && a.entries[i].m.V.Start == t) {
				i++
			}
			if i == len(a.entries) {
				continue
			}
			gone := a.entries[i]
			a.entries = append(a.entries[:i], a.entries[i+1:]...)
			a.u.amDel(a, i, gone)
			if gone.cnt <= a.n {
				a.deref(gone.m, out)
			}
			// Anchors whose window [Vs, Vs+w) contained t lose one.
			for j := a.lowerBound(t.Add(-a.w) + 1); j < len(a.entries) && a.entries[j].m.V.Start <= t; j++ {
				a.u.amCnt(a, j, false)
				a.entries[j].cnt--
				if a.entries[j].cnt == a.n {
					a.ref(a.entries[j].m, out)
				}
			}
			continue
		}
		// Insert, computing the new entry's own count over [t, t+w).
		i := sort.Search(len(a.entries), func(i int) bool { return !matchBefore(&a.entries[i].m, &it.m) })
		a.entries = append(a.entries, amEntry{})
		copy(a.entries[i+1:], a.entries[i:])
		a.entries[i] = amEntry{m: it.m} // place before searching: the array must be sorted
		a.entries[i].cnt = a.lowerBound(t.Add(a.w)) - a.lowerBound(t)
		a.u.amIns(a, i)
		// Existing anchors whose window contains t gain one.
		for j := a.lowerBound(t.Add(-a.w) + 1); j < len(a.entries) && a.entries[j].m.V.Start <= t; j++ {
			if j == i {
				continue
			}
			a.u.amCnt(a, j, true)
			a.entries[j].cnt++
			if a.entries[j].cnt == a.n+1 {
				a.deref(a.entries[j].m, out)
			}
		}
		if a.entries[i].cnt <= a.n {
			a.ref(a.entries[i].m, out)
		}
	}
}

// transform derives the anchor's output, per the ATMOST operator row.
func (a *atMostNode) transform(b algebra.Match) algebra.Match {
	m := b
	m.ID = event.Pair(b.ID)
	m.V = temporal.NewInterval(b.V.Start, b.V.Start.Add(a.w))
	m.FinalizeAt = b.V.Start.Add(a.w)
	return m
}

func (a *atMostNode) ref(b algebra.Match, out *delta) {
	m := a.transform(b)
	a.u.intMap(a.refs, m.ID)
	a.refs[m.ID]++
	if a.refs[m.ID] == 1 {
		a.u.matchMap(a.outs, m.ID, nil)
		a.outs[m.ID] = m
		out.add(m)
	}
}

func (a *atMostNode) deref(b algebra.Match, out *delta) {
	m := a.transform(b)
	a.u.intMap(a.refs, m.ID)
	a.refs[m.ID]--
	if a.refs[m.ID] == 0 {
		a.u.intMap(a.refs, m.ID)
		delete(a.refs, m.ID)
		a.u.matchMap(a.outs, m.ID, nil)
		delete(a.outs, m.ID)
		out.del(m)
	}
}

func (a *atMostNode) clone(sh *shared) node {
	c := &atMostNode{
		n:       a.n,
		w:       a.w,
		entries: append([]amEntry(nil), a.entries...),
		outs:    make(map[event.ID]algebra.Match, len(a.outs)),
		refs:    make(map[event.ID]int, len(a.refs)),
		u:       sh.u,
	}
	for _, k := range a.kids {
		c.kids = append(c.kids, k.clone(sh))
	}
	for id, m := range a.outs {
		c.outs[id] = m
	}
	for id, r := range a.refs {
		c.refs[id] = r
	}
	return c
}
