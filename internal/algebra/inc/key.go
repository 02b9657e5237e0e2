package inc

import (
	"strings"

	"repro/internal/algebra"
	"repro/internal/event"
)

// Correlation-key pushdown: when the query's WHERE clause proves that every
// detection combines only events agreeing on one payload attribute (a
// CorrelationKey(attr, EQUAL) clause, or a spanning conjunction of pairwise
// {a.attr = b.attr} predicates — internal/lang computes the proof, the plan
// passes the attribute via WithJoinKey), the join and negation stores of the
// matcher tree index their state by that attribute's value. A new child
// match then combines only with picks sharing its key, and a negative-side
// match only visits candidates sharing its key, shrinking the enumeration
// from the cross product of all live matches to the matching key's bucket.
//
// The pushdown is a pure index: every predicate the planner compiled —
// filterNode's residual WHERE conjunction and the negation operators' Corr
// — still runs. Correctness therefore only requires that the index never
// *hides* a combination the predicates would accept:
//
//   - A match's key is *definite* only when every payload value under the
//     attribute (the same suffix rule the language's CorrelationKey
//     expansion uses) exists, is canonically comparable, and is one common
//     value. Anything else — no value, mixed values, an exotic type — is
//     *wild* and keeps combining with every bucket, exactly as unkeyed.
//   - Join nodes skip only definite×definite pairs with unequal keys; the
//     top-level EQUAL filter rejects those composites regardless, so the
//     root's post-filter output set is unchanged. Join keying is further
//     restricted to the pattern's positive scope outside any ATMOST (see
//     buildCtx): negative sides and window counts are not monotone in
//     their input set, so pruning there could add output, not just work.
//   - Negation nodes skip only definite×definite visits with unequal keys,
//     which the planner only enables (the expression's CorrKey annotation)
//     when the site's Corr is provably false on such pairs — so blocker
//     counts, and therefore the node's output set, are unchanged exactly.
//
// Numeric keys are canonicalized to float64 so the buckets equate int64(3)
// with float64(3) the way event.ValueEqual does.

// keyCfg is the pushdown configuration shared by the tree: the correlation
// attribute and its precomputed namespace suffix.
type keyCfg struct {
	attr   string
	suffix string
}

func newKeyCfg(attr string) *keyCfg {
	if attr == "" {
		return nil
	}
	return &keyCfg{attr: attr, suffix: "." + attr}
}

// of extracts a match's correlation key from its (namespaced) payload.
// def reports a definite key; otherwise the match is wild.
//
// Only names of the exact `<alias>.<attr>` form (dot-free prefix) may make
// a key definite, and all of them must agree. A dotted payload attribute
// (e.g. "a.sub.k", which the CorrelationKey suffix filter *does* inspect
// but a pairwise {a.k = b.k} predicate does not) forces the match wild:
// keying on a value some pushed predicate never compares could hide
// combinations that predicate accepts — in particular, pairwise exact
// lookups treat two *absent* values as equal, so a match must never be
// definite unless its exact lookup really carries the key value. Wild is
// always the safe direction; definite is reserved for matches where every
// pushable predicate family provably sees exactly this one value.
func (c *keyCfg) of(p event.Payload) (kv event.Value, def bool) {
	for name, v := range p {
		if !strings.HasSuffix(name, c.suffix) {
			continue
		}
		if strings.Contains(name[:len(name)-len(c.suffix)], ".") {
			return nil, false // dotted payload attribute, not an alias.attr lookup
		}
		cv, ok := canonKeyValue(v)
		if !ok {
			return nil, false
		}
		if !def {
			kv, def = cv, true
		} else if cv != kv {
			return nil, false
		}
	}
	return kv, def
}

// canonKeyValue maps a payload value onto the canonical bucket domain:
// numbers collapse to float64 (matching event.ValueEqual's cross-type
// numeric equality), strings and bools stand for themselves. Other dynamic
// types are not bucketable and make the match wild — as does NaN, which is
// not self-equal: a NaN map key could be inserted but never looked up
// again (and ValueEqual(NaN, NaN) is false, so nothing equality-based can
// ever accept a NaN-keyed combination anyway).
func canonKeyValue(v event.Value) (event.Value, bool) {
	switch x := v.(type) {
	case int:
		return float64(x), true
	case int64:
		return float64(x), true
	case float64:
		if x != x {
			return nil, false
		}
		return x, true
	case string:
		return x, true
	case bool:
		return x, true
	default:
		return nil, false
	}
}

// keyedList is the key-indexed variant of matchList: one sorted bucket per
// definite key plus one list for wild matches. Empty buckets are deleted
// eagerly — the pruning seam for key-heavy streams: a source cycling
// through many distinct keys must not leave a map of dead keys behind once
// the prune horizon (or a removal storm) drains their matches.
type keyedList struct {
	buckets map[event.Value]*matchList
	wild    matchList
}

func (l *keyedList) insert(m algebra.Match, kv event.Value, def bool) {
	if !def {
		l.wild.insert(m)
		return
	}
	b := l.buckets[kv]
	if b == nil {
		if l.buckets == nil {
			l.buckets = make(map[event.Value]*matchList, 8)
		}
		b = &matchList{}
		l.buckets[kv] = b
	}
	b.insert(m)
}

func (l *keyedList) remove(m algebra.Match, kv event.Value, def bool) bool {
	if !def {
		return l.wild.removeMatch(m)
	}
	b := l.buckets[kv]
	if b == nil {
		return false
	}
	ok := b.removeMatch(m)
	if ok && len(b.ms) == 0 {
		delete(l.buckets, kv)
	}
	return ok
}

// scan visits every sorted list a (kv, def) probe may combine with — the
// single source of the pushdown's routing rule: a definite probe sees its
// own key's bucket plus the wild list; a wild probe sees everything.
func (l *keyedList) scan(kv event.Value, def bool, fn func(*matchList)) {
	if def {
		if b := l.buckets[kv]; b != nil {
			fn(b)
		}
	} else {
		for _, b := range l.buckets {
			fn(b)
		}
	}
	fn(&l.wild)
}

func (l *keyedList) clone() keyedList {
	c := keyedList{wild: l.wild.clone()}
	if len(l.buckets) > 0 {
		c.buckets = make(map[event.Value]*matchList, len(l.buckets))
		for kv, b := range l.buckets {
			cb := b.clone()
			c.buckets[kv] = &cb
		}
	}
	return c
}
