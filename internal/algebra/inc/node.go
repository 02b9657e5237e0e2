// Package inc is the incremental pattern-matching subsystem: a matcher
// tree that maintains the denotation of a WHEN-clause expression (package
// algebra) under a stream of primitive-event insertions, removals and
// scope-pruning advances by propagating *deltas* — new and retracted
// matches — instead of re-deriving the expression over the full store on
// every step (the semi-naive strategy of algebra.PatternOp, which this
// package keeps as its frozen reference oracle).
//
// Every algebra.Expr node compiles to a stateful matcher node holding
// time-indexed contributor stores and partial matches:
//
//   - TYPE        → leaf: the live primitive matches of one event type
//   - SEQUENCE    → per-position sorted match lists joined incrementally
//   - ATLEAST     → position-subset join with output reference counts
//   - ATMOST      → sliding-window anchor counts
//   - UNLESS, UNLESS', NOT, CANCEL-WHEN → candidate stores with per-
//     candidate blocker counts over an indexed negative-side store
//   - FILTER      → stateless delta filter
//
// The node contract: after any sequence of push/remove/prune calls, the
// node's live output set equals algebra.Denote of its sub-expression over
// the primitive events currently live in its leaves. Deltas report every
// transition of that set, in order, so a parent (or the driving Op, op.go)
// never re-derives. Negation nodes hold pending candidates and flip them
// as blockers arrive and leave; the driving Op decides *emission* (the
// FinalizeAt frontier and SC modes) exactly as the oracle does.
//
// Allocation discipline: nodes append transitions into a caller-owned
// delta (the out-parameter style below) and keep one reusable scratch
// delta per node for collecting child transitions, so the steady-state
// push path allocates nothing for delta plumbing. Derived matches —
// the leaf's namespaced-payload match and the join nodes' combined
// composites — are interned in caches shared with clones: the
// consistency monitor drives every event through a live operator and,
// later, through its cloned checkpoint (and replays suffixes through
// snapshot clones), so the second and subsequent derivations of the
// same match reuse the first one's payload map and lineage outright.
// Clones of one operator are only ever driven sequentially (the Op
// contract), which is what makes the sharing sound; parallel shards
// build fresh operators via plan.Fresh and never share caches.
package inc

import (
	"sort"

	"repro/internal/algebra"
	"repro/internal/event"
	"repro/internal/temporal"
)

// item is one match transition.
type item struct {
	m   algebra.Match
	del bool
}

// delta is an ordered batch of match transitions flowing up the tree.
// Order matters: one primitive event can both add and retract matches of
// the same node (an event may contribute to a positive side and block on a
// negative side at once), and applying transitions out of order would leave
// a parent's mirror of its child inconsistent.
type delta struct {
	items []item
}

func (d *delta) add(m algebra.Match) { d.items = append(d.items, item{m: m}) }
func (d *delta) del(m algebra.Match) { d.items = append(d.items, item{m: m, del: true}) }
func (d *delta) reset()              { d.items = d.items[:0] }

// shared is tree-global state owned by the driving Op: the occurrence times
// of the available (live, unconsumed) primitive events (UNLESS' nodes
// resolve their anchor contributor through it at candidate-creation time),
// the correlation-key pushdown configuration (nil = unkeyed; see key.go),
// and the operator's undo journal (journal.go), which every node copies at
// build/clone time so its mutations can be journaled without an indirection
// through sh on the hot path. u is always non-nil; it records nothing until
// the first Mark turns it on.
type shared struct {
	vs  map[event.ID]temporal.Time
	key *keyCfg
	u   *undoLog
}

// buildCtx tracks where in the expression a node is being built, which
// decides whether join nodes may apply the pushdown key:
//
//   - pos: inside the pattern's positive scope. Negative sides of the
//     negation operators never key their joins — a pruned negative-side
//     match is a missing blocker, which would *add* output the residual
//     predicates cannot take back.
//   - frozen: under an ATMOST. Its sliding-window counts are over the kid
//     output sets themselves; pruning those sets would change counts, not
//     just skip doomed composites.
//
// Negation nodes are exempt from both: their keying (gated per site by the
// expression's CorrKey annotation) only indexes candidate↔blocker visits
// and leaves every node's output set bit-identical.
type buildCtx struct {
	pos    bool
	frozen bool
}

// joinKey returns the pushdown configuration a join node at this position
// may use, or nil.
func (c buildCtx) joinKey(sh *shared) *keyCfg {
	if c.pos && !c.frozen {
		return sh.key
	}
	return nil
}

// node is one stateful matcher in the tree.
type node interface {
	// push feeds one primitive event (insert); the node dispatches it to
	// its children and folds their deltas into its own state, appending
	// its own transitions to out.
	push(e event.Event, out *delta)
	// remove feeds a full removal of a primitive event by ID.
	remove(id event.ID, out *delta)
	// prune drops state derived from events with Vs < horizon, exactly as
	// the oracle's store pruning does: silently below the driver (the
	// appended transitions let parents stay consistent and let negation
	// nodes surface revivals, but never turn into output retractions).
	prune(horizon temporal.Time, out *delta)
	// clone deep-copies the node, rebinding it to sh. Interning caches
	// are shared with the clone (clones run sequentially).
	clone(sh *shared) node
}

// internCap bounds every interning cache in the tree; pathological streams
// reset a full cache rather than growing it without bound (the same policy
// as the aggregate operator's payload cache).
const internCap = 4096

// combCache interns derived matches by ID — combined composites keyed by
// output ID at join nodes, namespaced leaf matches keyed by primitive
// event ID — shared between an operator and its clones. The monitor's checkpoint operator
// re-derives exactly the matches the live operator already derived, so
// the second derivation reuses the first's payload map and lineage
// slices. Entries are immutable once stored.
type combCache struct {
	m map[event.ID]algebra.Match
}

// The map is lazily initialized: keyed fan-out builds one tree per
// correlation key, and most per-key leaves intern only a handful of
// matches (or none), so pre-sizing here dominated the allocation profile.
func newCombCache() *combCache { return &combCache{} }

func (c *combCache) get(id event.ID) (algebra.Match, bool) {
	m, ok := c.m[id]
	return m, ok
}

func (c *combCache) put(id event.ID, m algebra.Match) {
	if c.m == nil {
		c.m = make(map[event.ID]algebra.Match, 64)
	} else if len(c.m) >= internCap {
		clear(c.m)
	}
	c.m[id] = m
}

// Supported reports whether the expression grammar is fully covered by the
// matcher tree. It mirrors build: any new Expr kind must extend both.
func Supported(x algebra.Expr) bool {
	switch e := x.(type) {
	case algebra.TypeExpr:
		return true
	case algebra.SequenceExpr:
		return allSupported(e.Kids)
	case algebra.AtLeastExpr:
		return allSupported(e.Kids)
	case algebra.AtMostExpr:
		return allSupported(e.Kids)
	case algebra.UnlessExpr:
		return Supported(e.A) && Supported(e.B)
	case algebra.UnlessPrimeExpr:
		return Supported(e.A) && Supported(e.B)
	case algebra.NotExpr:
		return Supported(e.Neg) && Supported(e.Seq)
	case algebra.CancelWhenExpr:
		return Supported(e.E) && Supported(e.Cancel)
	case algebra.FilterExpr:
		return Supported(e.Kid)
	default:
		return false
	}
}

func allSupported(kids []algebra.Expr) bool {
	for _, k := range kids {
		if !Supported(k) {
			return false
		}
	}
	return true
}

// build compiles an expression into its matcher node. Callers must have
// checked Supported; unknown kinds panic. The root is built with
// buildCtx{pos: true}.
func build(x algebra.Expr, sh *shared, ctx buildCtx) node {
	switch e := x.(type) {
	case algebra.TypeExpr:
		return newLeaf(e, sh)
	case algebra.SequenceExpr:
		return newSeqNode(e, sh, ctx)
	case algebra.AtLeastExpr:
		return newAtLeastNode(e, sh, ctx)
	case algebra.AtMostExpr:
		return newAtMostNode(e, sh, buildCtx{pos: ctx.pos, frozen: true})
	case algebra.UnlessExpr:
		neg := buildCtx{frozen: ctx.frozen}
		return newNegNode(negUnless, build(e.A, sh, ctx), build(e.B, sh, neg), e.W, 0, e.Corr, e.CorrKey, sh)
	case algebra.UnlessPrimeExpr:
		neg := buildCtx{frozen: ctx.frozen}
		return newNegNode(negUnlessPrime, build(e.A, sh, ctx), build(e.B, sh, neg), e.W, e.N, e.Corr, e.CorrKey, sh)
	case algebra.NotExpr:
		neg := buildCtx{frozen: ctx.frozen}
		return newNegNode(negNot, build(e.Seq, sh, ctx), build(e.Neg, sh, neg), 0, 0, e.Corr, e.CorrKey, sh)
	case algebra.CancelWhenExpr:
		neg := buildCtx{frozen: ctx.frozen}
		return newNegNode(negCancelWhen, build(e.E, sh, ctx), build(e.Cancel, sh, neg), 0, 0, e.Corr, e.CorrKey, sh)
	case algebra.FilterExpr:
		return &filterNode{kid: build(e.Kid, sh, ctx), pred: e.Pred}
	default:
		panic("inc: unsupported expression " + x.String())
	}
}

// matchList is a set of matches kept sorted by (V.Start, ID) with binary
// range queries over occurrence time — the time-indexed contributor store
// every join node uses.
type matchList struct {
	ms []algebra.Match
}

func matchBefore(a, b *algebra.Match) bool {
	if a.V.Start != b.V.Start {
		return a.V.Start < b.V.Start
	}
	return a.ID < b.ID
}

func (l *matchList) insert(m algebra.Match) {
	i := sort.Search(len(l.ms), func(i int) bool { return !matchBefore(&l.ms[i], &m) })
	l.ms = append(l.ms, algebra.Match{})
	copy(l.ms[i+1:], l.ms[i:])
	l.ms[i] = m
}

// removeMatch deletes the entry equal to m (by ID at m's occurrence time).
func (l *matchList) removeMatch(m algebra.Match) bool {
	i := sort.Search(len(l.ms), func(i int) bool { return !matchBefore(&l.ms[i], &m) })
	if i < len(l.ms) && l.ms[i].ID == m.ID && l.ms[i].V.Start == m.V.Start {
		l.ms = append(l.ms[:i], l.ms[i+1:]...)
		return true
	}
	return false
}

// lowerBound is the first index with V.Start >= t.
func (l *matchList) lowerBound(t temporal.Time) int {
	return sort.Search(len(l.ms), func(i int) bool { return l.ms[i].V.Start >= t })
}

// upperBound is the first index with V.Start > t.
func (l *matchList) upperBound(t temporal.Time) int {
	return sort.Search(len(l.ms), func(i int) bool { return l.ms[i].V.Start > t })
}

func (l *matchList) clone() matchList {
	return matchList{ms: append([]algebra.Match(nil), l.ms...)}
}

// leafNode matches all primitive events of one type (algebra.TypeExpr).
type leafNode struct {
	t      algebra.TypeExpr
	prefix string
	live   map[event.ID]algebra.Match // keyed by primitive event ID
	// idx is live's expiry index (expiry.go) by occurrence time: a prune
	// pops only the matches below the horizon, and a leaf holding nothing
	// prunable costs one comparison.
	idx expiryIndex
	// interned caches the derived match per primitive event ID, shared
	// with clones: the checkpoint operator's push of an event the live
	// operator already saw — and any revival re-push after an un-consume —
	// reuses the namespaced payload map instead of rebuilding it.
	interned *combCache
	u        *undoLog
}

func newLeaf(t algebra.TypeExpr, sh *shared) *leafNode {
	return &leafNode{t: t, prefix: t.Prefix(), live: map[event.ID]algebra.Match{},
		interned: newCombCache(), u: sh.u}
}

func (l *leafNode) push(e event.Event, out *delta) {
	if e.Kind != event.Insert || e.Type != l.t.Type {
		return
	}
	m, ok := l.interned.get(e.ID)
	if !ok {
		p := make(event.Payload, len(e.Payload))
		for k, v := range e.Payload {
			p[l.prefix+"."+k] = v
		}
		m = algebra.Match{
			ID:         event.Pair(e.ID),
			V:          e.V,
			RT:         e.V.Start,
			FinalizeAt: e.V.Start,
			FirstVs:    e.V.Start,
			LastVs:     e.V.Start,
			CBT:        []event.ID{e.ID},
			Payload:    p,
		}
		l.interned.put(e.ID, m)
	}
	l.u.matchMap(l.live, e.ID, &l.idx)
	l.live[e.ID] = m
	l.idx.push(m.V.Start, e.ID)
	l.idx.fitMatches(l.live)
	out.add(m)
}

func (l *leafNode) remove(id event.ID, out *delta) {
	if m, ok := l.live[id]; ok {
		l.drop(id, m, out)
	}
}

func (l *leafNode) prune(horizon temporal.Time, out *delta) {
	for l.idx.min() < horizon {
		id := l.idx.pop().id
		if m, ok := l.live[id]; ok && m.V.Start < horizon {
			l.drop(id, m, out)
		}
	}
}

func (l *leafNode) drop(id event.ID, m algebra.Match, out *delta) {
	l.u.matchMap(l.live, id, &l.idx)
	delete(l.live, id)
	l.idx.fitMatches(l.live)
	out.del(m)
}

func (l *leafNode) clone(sh *shared) node {
	c := &leafNode{t: l.t, prefix: l.prefix,
		live:     make(map[event.ID]algebra.Match, len(l.live)),
		idx:      l.idx.clone(),
		interned: l.interned,
		u:        sh.u}
	for id, m := range l.live {
		c.live[id] = m
	}
	return c
}

// filterNode injects a WHERE predicate (algebra.FilterExpr): a stateless
// delta filter over its child's transitions.
type filterNode struct {
	kid  node
	pred func(event.Payload) bool
	kd   delta // reusable child-transition scratch
}

func (f *filterNode) filter(out *delta) {
	for _, it := range f.kd.items {
		if f.pred(it.m.Payload) {
			out.items = append(out.items, it)
		}
	}
}

func (f *filterNode) push(e event.Event, out *delta) {
	f.kd.reset()
	f.kid.push(e, &f.kd)
	f.filter(out)
}

func (f *filterNode) remove(id event.ID, out *delta) {
	f.kd.reset()
	f.kid.remove(id, &f.kd)
	f.filter(out)
}

func (f *filterNode) prune(h temporal.Time, out *delta) {
	f.kd.reset()
	f.kid.prune(h, &f.kd)
	f.filter(out)
}

func (f *filterNode) clone(sh *shared) node {
	return &filterNode{kid: f.kid.clone(sh), pred: f.pred}
}
