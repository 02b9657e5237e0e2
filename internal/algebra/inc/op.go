package inc

import (
	"sort"

	"repro/internal/algebra"
	"repro/internal/event"
	"repro/internal/operators"
	"repro/internal/ordkey"
	"repro/internal/temporal"
)

// Op is the incremental streaming implementation of a WHEN-clause
// expression: an operators.Op byte-compatible with the semi-naive
// algebra.PatternOp — identical output events in identical order,
// identical Advance order keys, identical state counts — but driven by the
// matcher tree, so per-event cost is O(affected matches) instead of a full
// re-derivation over the live store.
//
// The Op owns emission: the tree maintains pending (the exact match set
// the oracle's Denote would derive over the available store) via deltas,
// and mature applies the SC mode and the FinalizeAt frontier to it with
// the oracle's ApplySC logic. Consumption feeds back into the tree as
// contributor removals, with the consumed events parked in a side store so
// a later removal's un-consume path can revive them.
//
// Unlike the oracle, which sorts a fresh derivation on every step, the
// pending set is maintained *in commit order* ((FinalizeAt, Vs, FirstVs,
// ID) — the SortMatches order) by binary insertion, and mature commits it
// group by group: each consecutive (FinalizeAt, LastVs) run — the oracle's
// ApplySC detection group — is selected and consumed with the same
// threaded consumed-set, but the walk stops at the first group beyond the
// frontier (later groups can only influence groups later still, none of
// which may emit yet) and, under reuse consumption, resumes after the
// stable already-committed prefix instead of re-scanning it.
type Op struct {
	Expr    algebra.Expr
	Mode    algebra.SCMode
	OutType string

	// keyAttr is the correlation-key pushdown attribute (WithJoinKey);
	// empty means unkeyed. See key.go.
	keyAttr string
	// trackVs: maintain sh.vs, the available-occurrence table. Only
	// UNLESS' nodes read it (anchor resolution), so every other
	// expression skips the per-event map writes it would cost.
	trackVs bool

	sh       *shared
	root     node
	store    map[event.ID]event.Event // available primitive events
	consumed map[event.ID]event.Event // consumed contributors, kept for revival
	pending  pendingList              // the root's live match set, in commit order
	emitted  map[event.ID]algebra.Match
	frontier temporal.Time
	scope    temporal.Duration

	// Emission fast path: mature only runs a commit pass when a pending
	// match could actually emit. minAddFin tracks the earliest FinalizeAt
	// added since the last pass; minFutureFin the earliest pending
	// FinalizeAt beyond the frontier as of the last pass; dirty forces a
	// pass after retractions, prunes and revivals, which can make
	// previously suppressed (selection-losing or consume-blocked) matches
	// emittable — the oracle re-derives and re-selects every time, so those
	// late emissions are part of its contract.
	minAddFin    temporal.Time
	minFutureFin temporal.Time
	dirty        bool
	// stable: pending entries below this index form whole detection groups
	// already committed by a previous pass and untouched since; under
	// reuse consumption a pass starts there (selection is deterministic on
	// group content, so unchanged groups can emit nothing new). Any
	// insertion or deletion below the boundary resets it. Consume mode
	// always walks from 0: its consumed-set threads across groups.
	stable int

	// Expiry indexes (expiry.go): evIdx over store ∪ consumed by V.Start
	// (consumption and revival move an event between the two without
	// touching its entry), emitIdx over emitted by LastVs. Advance pops
	// only what lies below the horizon. Tree state derives from leaf
	// events, every one of which lives in store, so evIdx's minimum also
	// gates the tree prune.
	evIdx, emitIdx expiryIndex

	// aliased: this handle's state is structurally shared with at least one
	// other handle (a lazy Clone). Every shared structure is frozen — any
	// handle's first mutation deep-copies its own view first (ensureOwned),
	// so Clone itself is O(1).
	aliased bool

	rootDelta delta             // reusable root-transition scratch
	selBuf    []algebra.Match   // per-pass committed-selection scratch
	consBuf   map[event.ID]bool // per-pass consumed-set scratch
	outBuf    []event.Event     // mature's reusable output buffer
	remBuf    []event.Event     // remove's reusable output buffer
}

// pendingList keeps the live match set sorted in commit order — exactly
// algebra.SortMatches' (FinalizeAt, Vs, FirstVs, ID) — so mature never
// sorts. ID breaks every tie, making the order total: each match has one
// slot.
type pendingList struct {
	ms []algebra.Match
}

func commitBefore(a, b *algebra.Match) bool {
	if a.FinalizeAt != b.FinalizeAt {
		return a.FinalizeAt < b.FinalizeAt
	}
	if a.V.Start != b.V.Start {
		return a.V.Start < b.V.Start
	}
	if a.FirstVs != b.FirstVs {
		return a.FirstVs < b.FirstVs
	}
	return a.ID < b.ID
}

// slot locates m's insertion index and whether an entry with m's ID is
// already there.
func (l *pendingList) slot(m *algebra.Match) (int, bool) {
	i := sort.Search(len(l.ms), func(i int) bool { return !commitBefore(&l.ms[i], m) })
	return i, i < len(l.ms) && l.ms[i].ID == m.ID && !commitBefore(m, &l.ms[i])
}

func (l *pendingList) insertAt(i int, m algebra.Match) {
	l.ms = append(l.ms, algebra.Match{})
	copy(l.ms[i+1:], l.ms[i:])
	l.ms[i] = m
}

func (l *pendingList) removeAt(i int) {
	l.ms = append(l.ms[:i], l.ms[i+1:]...)
}

func (l *pendingList) size() int { return len(l.ms) }

// OpOption configures NewOp.
type OpOption func(*Op)

// WithJoinKey enables correlation-key pushdown on attr: the tree's join
// lists and (where the expression's CorrKey annotations allow) negation
// stores index their state by the attribute's value, so matching combines
// only within a key instead of across the whole store. The caller — in
// practice the planner — must have proven that the query's predicates
// reject every cross-key combination; the pushdown is a pure index and all
// compiled predicates still run (see key.go for the exact contract).
func WithJoinKey(attr string) OpOption {
	return func(p *Op) { p.keyAttr = attr }
}

// NewOp builds the incremental pattern operator for expr. The expression
// must be Supported; outType names the composite events it emits.
func NewOp(expr algebra.Expr, mode algebra.SCMode, outType string, opts ...OpOption) *Op {
	if outType == "" {
		outType = "composite"
	}
	scope := expr.MaxScope()
	if scope <= 0 {
		scope = 1
	}
	p := &Op{
		Expr:         expr,
		Mode:         mode,
		OutType:      outType,
		store:        map[event.ID]event.Event{},
		consumed:     map[event.ID]event.Event{},
		emitted:      map[event.ID]algebra.Match{},
		frontier:     temporal.MinTime,
		scope:        scope,
		minAddFin:    temporal.Infinity,
		minFutureFin: temporal.Infinity,
	}
	for _, o := range opts {
		o(p)
	}
	p.trackVs = usesAnchorTimes(expr)
	p.sh = &shared{vs: map[event.ID]temporal.Time{}, key: newKeyCfg(p.keyAttr), u: &undoLog{}}
	p.root = build(expr, p.sh, buildCtx{pos: true})
	return p
}

// usesAnchorTimes reports whether the expression contains an UNLESS' node
// — the only reader of the shared occurrence-time table.
func usesAnchorTimes(x algebra.Expr) bool {
	switch e := x.(type) {
	case algebra.UnlessPrimeExpr:
		return true
	case algebra.SequenceExpr:
		return anyAnchorTimes(e.Kids)
	case algebra.AtLeastExpr:
		return anyAnchorTimes(e.Kids)
	case algebra.AtMostExpr:
		return anyAnchorTimes(e.Kids)
	case algebra.UnlessExpr:
		return usesAnchorTimes(e.A) || usesAnchorTimes(e.B)
	case algebra.NotExpr:
		return usesAnchorTimes(e.Seq) || usesAnchorTimes(e.Neg)
	case algebra.CancelWhenExpr:
		return usesAnchorTimes(e.E) || usesAnchorTimes(e.Cancel)
	case algebra.FilterExpr:
		return usesAnchorTimes(e.Kid)
	default:
		return false
	}
}

func anyAnchorTimes(kids []algebra.Expr) bool {
	for _, k := range kids {
		if usesAnchorTimes(k) {
			return true
		}
	}
	return false
}

// JoinKey reports the pushdown attribute, or "" when unkeyed.
func (p *Op) JoinKey() string { return p.keyAttr }

// Name implements operators.Op.
func (p *Op) Name() string { return "incpattern:" + p.Expr.String() }

// Arity implements operators.Op.
func (p *Op) Arity() int { return 1 }

// applySource tags where a delta came from; only real removals may turn
// into output retractions (handled by the emitted scan in remove), and
// only removal-shaped sources mark the pending set dirty.
type applySource uint8

const (
	srcInsert applySource = iota
	srcRemove
	srcPrune
	srcConsume
	srcRevive
)

// apply folds a root delta into the pending set.
func (p *Op) apply(d *delta, src applySource) {
	u := p.sh.u
	for _, it := range d.items {
		if it.del {
			if i, ok := p.pending.slot(&it.m); ok {
				u.pendDel(&p.pending, i)
				p.pending.removeAt(i)
				if i < p.stable {
					p.stable = 0
				}
				// A disappearing group member can hand its selection slot
				// to a suppressed sibling on the *next* pass (the oracle
				// re-selects over a fresh derivation every mature); rescan.
				// This applies to insert-path deletions too: under aligned
				// input a newly blocked candidate's group cannot have
				// matured, but the oracle tolerates misaligned input (a
				// straggler blocker landing after its window was already
				// selected over) and re-emits the freed sibling — so must
				// we.
				p.dirty = true
			}
			continue
		}
		i, exists := p.pending.slot(&it.m)
		if exists {
			u.pendSet(&p.pending, i)
			p.pending.ms[i] = it.m
			continue
		}
		// The stable prefix ends on a group boundary; an insert below it —
		// or at it, when the new match extends the group just before it —
		// changes an already-committed group and forces a full re-walk.
		if i < p.stable || (i == p.stable && i > 0 &&
			p.pending.ms[i-1].FinalizeAt == it.m.FinalizeAt &&
			p.pending.ms[i-1].LastVs == it.m.LastVs) {
			p.stable = 0
		}
		p.pending.insertAt(i, it.m)
		u.pendIns(&p.pending, i)
		if it.m.FinalizeAt < p.minAddFin {
			p.minAddFin = it.m.FinalizeAt
		}
	}
}

// Process implements operators.Op.
func (p *Op) Process(_ int, e event.Event) []event.Event {
	p.ensureOwned()
	if e.Kind == event.Retract {
		if !e.V.Empty() {
			return nil // lifetime shrink: pattern semantics see only Vs
		}
		return p.remove(e.ID)
	}
	if e.V.Start > p.frontier {
		p.frontier = e.V.Start
	}
	// Events are stored by value; payload and lineage slices stay shared
	// with the caller's event. Operator payloads are immutable by contract
	// (the monitor's repair diff leans on exactly that sharing), so the
	// defensive deep clone the oracle performs buys nothing here — and the
	// leaf re-namespaces the payload into a fresh map anyway.
	p.sh.u.evMap(p.store, e.ID, &p.evIdx)
	p.store[e.ID] = e
	p.evIdx.push(e.V.Start, e.ID)
	p.fitEvents()
	if p.trackVs && e.Kind == event.Insert {
		p.sh.u.timeMap(p.sh.vs, e.ID)
		p.sh.vs[e.ID] = e.V.Start
	}
	p.rootDelta.reset()
	p.root.push(e, &p.rootDelta)
	p.apply(&p.rootDelta, srcInsert)
	outs := p.mature()
	p.sh.u.flush()
	return outs
}

// remove handles a full removal of a primitive event: cascade it through
// the tree, retract dependent emitted outputs in deterministic commit
// order, revive un-consumed contributors, and re-mature.
func (p *Op) remove(id event.ID) []event.Event {
	sev, inStore := p.store[id]
	cev, wasConsumed := p.consumed[id]
	if !inStore && !wasConsumed {
		return nil
	}
	if inStore {
		p.dropEvent(p.store, id, sev)
	}
	if wasConsumed {
		p.dropEvent(p.consumed, id, cev)
	}
	if p.trackVs {
		p.sh.u.timeMap(p.sh.vs, id)
		delete(p.sh.vs, id)
	}
	if inStore {
		p.rootDelta.reset()
		p.root.remove(id, &p.rootDelta)
		p.apply(&p.rootDelta, srcRemove)
	}

	// Emitted outputs that depend on the removed contributor: retract in
	// the commit order the oracle's (sorted) emitted scan produces.
	var hit []algebra.Match
	for _, m := range p.emitted {
		for _, c := range m.CBT {
			if c == id {
				hit = append(hit, m)
				break
			}
		}
	}
	algebra.SortMatches(hit)
	outs := p.remBuf[:0]
	for _, m := range hit {
		r := m.Event(p.OutType)
		r.Kind = event.Retract
		r.V.End = r.V.Start
		outs = append(outs, r)
		p.dropEmitted(m.ID)
		p.dirty = true
		if wasConsumed || p.Mode.Cons == algebra.Consume {
			for _, c := range m.CBT {
				if c == id {
					continue
				}
				if ev, ok := p.consumed[c]; ok {
					p.moveEvent(p.consumed, p.store, c, ev)
					if p.trackVs {
						p.sh.u.timeMap(p.sh.vs, c)
						p.sh.vs[c] = ev.V.Start
					}
					p.rootDelta.reset()
					p.root.push(ev, &p.rootDelta)
					p.apply(&p.rootDelta, srcRevive)
				}
			}
		}
	}
	outs = append(outs, p.mature()...)
	p.remBuf = outs[:0]
	p.sh.u.flush()
	return outs
}

// dropEvent deletes id, whose entry old the caller already holds, from m —
// the available store or the consumed side store.
func (p *Op) dropEvent(m map[event.ID]event.Event, id event.ID, old event.Event) {
	p.sh.u.evMapKnown(m, id, old, &p.evIdx)
	delete(m, id)
	p.fitEvents()
}

// moveEvent moves ev between the available and the consumed store; its
// evIdx entry stays valid.
func (p *Op) moveEvent(from, to map[event.ID]event.Event, id event.ID, ev event.Event) {
	p.sh.u.evMapKnown(from, id, ev, &p.evIdx)
	delete(from, id)
	p.sh.u.evMap(to, id, &p.evIdx)
	to[id] = ev
}

// fitEvents restores evIdx's size bound over store ∪ consumed.
func (p *Op) fitEvents() {
	if p.evIdx.oversized(len(p.store) + len(p.consumed)) {
		p.evIdx.rebuildEvents(p.store, p.consumed)
	}
}

// dropEmitted deletes id from the emitted table.
func (p *Op) dropEmitted(id event.ID) {
	p.sh.u.matchMap(p.emitted, id, &p.emitIdx)
	delete(p.emitted, id)
	p.emitIdx.fitMatches(p.emitted)
}

// mature emits every not-yet-emitted pending match whose FinalizeAt the
// frontier covers, in deterministic commit order, honoring the SC mode —
// the oracle's ApplySC emission loop, run group by group over the
// commit-ordered pending set instead of a fresh sorted derivation, skipped
// entirely while nothing can emit, and cut short at the first group beyond
// the frontier.
func (p *Op) mature() []event.Event {
	if !p.dirty && p.minAddFin > p.frontier && p.minFutureFin > p.frontier {
		return nil
	}
	p.dirty = false
	p.minAddFin = temporal.Infinity

	ms := p.pending.ms
	start := 0
	if p.Mode.Cons == algebra.Reuse {
		// stable <= len(ms) is invariant: it is only ever set to a group
		// boundary of the current list, and every mutation below it
		// resets it to 0.
		start = p.stable
	}

	// Phase 1 — selection: the oracle's ApplySC over the groups the
	// frontier covers, into reusable scratch, one algebra.CommitGroup call
	// per (FinalizeAt, LastVs) run — the very function ApplySC commits
	// with. Groups beyond the frontier cannot emit and their consumption
	// can only affect groups later still, so the walk stops there.
	sel := p.selBuf[:0]
	var consumed map[event.ID]bool
	if p.Mode.Cons == algebra.Consume {
		if p.consBuf == nil {
			p.consBuf = map[event.ID]bool{}
		} else {
			clear(p.consBuf)
		}
		consumed = p.consBuf
	}

	cut := start
	for cut < len(ms) && ms[cut].FinalizeAt <= p.frontier {
		i := cut
		j := i + 1
		for j < len(ms) && ms[j].FinalizeAt == ms[i].FinalizeAt && ms[j].LastVs == ms[i].LastVs {
			j++
		}
		sel = algebra.CommitGroup(ms[i:j], p.Mode, consumed, sel)
		cut = j
	}

	// Entries past the cut were never emitted (emission requires the
	// frontier to have covered them, and the frontier only grows), so the
	// first one's FinalizeAt is the earliest future emission candidate.
	if cut < len(ms) {
		p.minFutureFin = ms[cut].FinalizeAt
	} else {
		p.minFutureFin = temporal.Infinity
	}
	if p.Mode.Cons == algebra.Reuse {
		p.stable = cut
	}

	// Phase 2 — emission with consume feedback. The feedback mutates the
	// pending list (and p.stable/dirty through apply), which is why the
	// selection above committed into scratch first — exactly the
	// ApplySC-then-emit split the oracle uses.
	outs := p.outBuf[:0]
	for si := range sel {
		m := sel[si]
		if _, done := p.emitted[m.ID]; done {
			continue
		}
		p.sh.u.matchMap(p.emitted, m.ID, &p.emitIdx)
		p.emitted[m.ID] = m
		p.emitIdx.push(m.LastVs, m.ID)
		p.emitIdx.fitMatches(p.emitted)
		if p.Mode.Cons == algebra.Consume {
			p.consume(m)
		}
		outs = append(outs, m.Event(p.OutType))
	}
	p.selBuf = sel[:0]
	p.outBuf = outs[:0]
	return outs
}

// consume parks an emitted match's contributors in the side store and
// removes them from the tree, so no later instance can reuse them — and so
// remove() can resurrect them.
func (p *Op) consume(m algebra.Match) {
	for _, id := range m.CBT {
		ev, ok := p.store[id]
		if !ok {
			continue
		}
		p.moveEvent(p.store, p.consumed, id, ev)
		if p.trackVs {
			p.sh.u.timeMap(p.sh.vs, id)
			delete(p.sh.vs, id)
		}
		p.rootDelta.reset()
		p.root.remove(id, &p.rootDelta)
		p.apply(&p.rootDelta, srcConsume)
	}
}

// Advance implements operators.Op: move the certainty frontier, emit
// finalized detections, prune state beyond the expression scope.
func (p *Op) Advance(t temporal.Time) []event.Event {
	p.ensureOwned()
	if t > p.frontier {
		p.frontier = t
	}
	outs := p.mature()
	if !p.frontier.IsInfinite() {
		// Prune on every advance, exactly like the oracle: even input that
		// violates the alignment contract (which the oracle tolerates) must
		// leave both implementations in identical state. The expiry
		// indexes hand out only the entries below the horizon; a popped
		// entry whose map entry is gone or now later is stale and skipped.
		// The event index's minimum skips the tree walk when no leaf can
		// hold anything prunable — skipping a provably empty prune leaves
		// identical state.
		horizon := p.frontier.Add(-p.scope)
		if p.evIdx.min() < horizon {
			p.rootDelta.reset()
			p.root.prune(horizon, &p.rootDelta)
			p.apply(&p.rootDelta, srcPrune)
			for p.evIdx.min() < horizon {
				id := p.evIdx.pop().id
				if e, ok := p.store[id]; ok && e.V.Start < horizon {
					p.dropEvent(p.store, id, e)
					if p.trackVs {
						p.sh.u.timeMap(p.sh.vs, id)
						delete(p.sh.vs, id)
					}
				} else if e, ok := p.consumed[id]; ok && e.V.Start < horizon {
					p.dropEvent(p.consumed, id, e)
				}
			}
		}
		for p.emitIdx.min() < horizon {
			id := p.emitIdx.pop().id
			if m, ok := p.emitted[id]; ok && m.LastVs < horizon {
				p.dropEmitted(id)
			}
		}
	} else {
		// Wholesale reset: journal the replaced containers (the tree, the
		// stores, the pending list) as one record, then rebuild. The new
		// shared struct keeps the same journal.
		p.sh.u.reset(p)
		p.sh = &shared{vs: map[event.ID]temporal.Time{}, key: p.sh.key, u: p.sh.u}
		p.root = build(p.Expr, p.sh, buildCtx{pos: true})
		p.store = map[event.ID]event.Event{}
		p.consumed = map[event.ID]event.Event{}
		p.evIdx = expiryIndex{}
		p.pending = pendingList{}
		p.dirty = false
		p.stable = 0
		p.minAddFin = temporal.Infinity
		p.minFutureFin = temporal.Infinity
	}
	p.sh.u.flush()
	return outs
}

// AppendAdvanceKey implements operators.AdvanceOrdered, byte-identical to
// the oracle: mature commits detections in (FinalizeAt, Vs, FirstVs, ID)
// order, so that tuple is the cross-key position of an Advance output.
func (p *Op) AppendAdvanceKey(dst []byte, e event.Event) []byte {
	fin, vs, first := e.V.Start, e.V.Start, e.RT
	if m, ok := p.emitted[e.ID]; ok {
		fin, vs, first = m.FinalizeAt, m.V.Start, m.FirstVs
	}
	dst = ordkey.AppendInt(dst, int64(fin))
	dst = ordkey.AppendInt(dst, int64(vs))
	dst = ordkey.AppendInt(dst, int64(first))
	return ordkey.AppendUint(dst, uint64(e.ID))
}

// OutputGuarantee implements operators.Op, identically to the oracle.
func (p *Op) OutputGuarantee(t temporal.Time) temporal.Time {
	if t.IsInfinite() {
		return t
	}
	return t.Add(-p.scope)
}

// StateSize implements operators.Op: retained primitive events (available
// and consumed — the oracle keeps both in its store) plus emitted matches.
func (p *Op) StateSize() int { return len(p.store) + len(p.consumed) + len(p.emitted) }

// PerEventCostNs implements operators.CostHint for the overhead-aware
// shard-count heuristic: the delta tree's cost scales with the
// expression's join and negation structure.
func (p *Op) PerEventCostNs() int { return algebra.ExprCostNs(p.Expr) }

// Clone implements operators.Op as an O(1) copy-on-write handle: the clone
// and the original share every state structure, both marked aliased, and
// whichever handle mutates first deep-copies its own view (ensureOwned).
// The tree's interning caches are shared either way (clones run
// sequentially — the Op contract). A clone never inherits scratch buffers:
// it grows its own on first use.
//
// When the undo journal is on (the operator is serving as a Versioned
// checkpoint target), Clone falls back to an eager deep copy with a fresh,
// off journal: journal records point into the live structures, so those
// may not be frozen under an aliased handle.
func (p *Op) Clone() operators.Op {
	if p.sh.u.on {
		return p.deepClone()
	}
	c := new(Op)
	*c = *p
	c.rootDelta = delta{}
	c.selBuf, c.consBuf, c.outBuf, c.remBuf = nil, nil, nil, nil
	c.aliased = true
	p.aliased = true
	return c
}

// ensureOwned makes the handle the sole owner of its state, deep-copying
// the shared (frozen) structures on the first mutation after a lazy Clone.
func (p *Op) ensureOwned() {
	if p.aliased {
		c := p.deepClone()
		c.rootDelta = p.rootDelta
		c.selBuf, c.consBuf, c.outBuf, c.remBuf = p.selBuf, p.consBuf, p.outBuf, p.remBuf
		*p = *c
	}
}

// deepClone is the eager copy: mutable state duplicated, interning caches
// shared, a fresh (off) journal.
func (p *Op) deepClone() *Op {
	sh := &shared{vs: make(map[event.ID]temporal.Time, len(p.sh.vs)), key: p.sh.key, u: &undoLog{}}
	for id, t := range p.sh.vs {
		sh.vs[id] = t
	}
	c := &Op{
		Expr:         p.Expr,
		Mode:         p.Mode,
		OutType:      p.OutType,
		keyAttr:      p.keyAttr,
		trackVs:      p.trackVs,
		sh:           sh,
		root:         p.root.clone(sh),
		store:        make(map[event.ID]event.Event, len(p.store)),
		consumed:     make(map[event.ID]event.Event, len(p.consumed)),
		pending:      pendingList{ms: append([]algebra.Match(nil), p.pending.ms...)},
		emitted:      make(map[event.ID]algebra.Match, len(p.emitted)),
		frontier:     p.frontier,
		scope:        p.scope,
		minAddFin:    p.minAddFin,
		minFutureFin: p.minFutureFin,
		dirty:        p.dirty,
		stable:       p.stable,
		evIdx:        p.evIdx.clone(),
		emitIdx:      p.emitIdx.clone(),
	}
	for id, e := range p.store {
		c.store[id] = e
	}
	for id, e := range p.consumed {
		c.consumed[id] = e
	}
	for id, m := range p.emitted {
		c.emitted[id] = m
	}
	return c
}

// Mark implements operators.Versioned: an O(1) barrier append returning a
// handle for the operator's current state. The first Mark turns the undo
// journal on; from then on every state mutation appends its exact inverse.
func (p *Op) Mark() operators.Version {
	p.ensureOwned()
	return operators.Version{Pos: p.sh.u.mark(p)}
}

// Rollback implements operators.Versioned: undo every mutation back to v,
// in O(mutations since v). v stays valid and can be rolled back to again;
// versions marked after v are invalidated.
func (p *Op) Rollback(v operators.Version) bool {
	if p.aliased || !p.sh.u.on {
		return false
	}
	return p.sh.u.rollbackTo(v.Pos, p)
}

// Compact implements operators.Versioned: discard undo history strictly
// below v, in O(discarded records).
func (p *Op) Compact(v operators.Version) {
	if p.aliased || !p.sh.u.on {
		return
	}
	p.sh.u.compact(v.Pos)
}
