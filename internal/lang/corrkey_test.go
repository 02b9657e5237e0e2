package lang

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/event"
)

// refCorrKey is the slice-collecting CorrelationKey semantics the
// allocation-free predicates must reproduce.
func refCorrKey(attr, mode string, lit event.Value) (func(event.Payload) bool, func(posP, negP event.Payload) bool) {
	suffix := "." + attr
	values := func(p event.Payload) []event.Value {
		var vs []event.Value
		for k, v := range p {
			if strings.HasSuffix(k, suffix) {
				vs = append(vs, v)
			}
		}
		return vs
	}
	pos := func(p event.Payload) bool {
		vs := values(p)
		if mode == "UNIQUE" {
			for i := range vs {
				for j := i + 1; j < len(vs); j++ {
					if event.ValueEqual(vs[i], vs[j]) {
						return false
					}
				}
			}
			return true
		}
		for i := 1; i < len(vs); i++ {
			if !event.ValueEqual(vs[0], vs[i]) {
				return false
			}
		}
		return lit == nil || len(vs) == 0 || event.ValueEqual(vs[0], lit)
	}
	corr := func(posP, negP event.Payload) bool {
		nvs, pvs := values(negP), values(posP)
		for _, nv := range nvs {
			if mode != "UNIQUE" && lit != nil && !event.ValueEqual(nv, lit) {
				return false
			}
			for _, pv := range pvs {
				if event.ValueEqual(nv, pv) == (mode == "UNIQUE") {
					return false
				}
			}
		}
		return true
	}
	return pos, corr
}

// TestCorrKeyPredicatesMatchReference drives the predicates and the
// reference over random payloads: mixed numeric types, string look-alikes,
// dotted attribute names (which the suffix rule includes) and near-miss
// keys (which it does not), beyond the stack buffer's width too.
func TestCorrKeyPredicatesMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	vals := []event.Value{int64(1), float64(1), int64(2), "1", "x", true}
	keys := []string{"a.m", "b.m", "c.m", "d.m", "e.x.m", "f.m", "g.m", "h.m", "i.m", "j.m",
		"a.x", "am", "b.mm"}
	payload := func() event.Payload {
		p := event.Payload{}
		for _, k := range keys {
			if rng.Intn(3) > 0 {
				p[k] = vals[rng.Intn(len(vals))]
			}
		}
		return p
	}
	var b binder
	for _, mode := range []string{"EQUAL", "UNIQUE"} {
		for _, lit := range []event.Value{nil, int64(1)} {
			if mode == "UNIQUE" && lit != nil {
				continue
			}
			pos, corr := b.corrKeyPredicates(Pred{CorrAttr: "m", CorrMode: mode, CorrLit: lit})
			rpos, rcorr := refCorrKey("m", mode, lit)
			for i := 0; i < 2000; i++ {
				p, n := payload(), payload()
				if i%2 == 0 {
					// Shrink toward few matching keys, where EQUAL holds often.
					for _, k := range keys[2:] {
						delete(p, k)
						delete(n, k)
					}
				}
				if got, want := pos(p), rpos(p); got != want {
					t.Fatalf("%s lit %v: pos(%v) = %v, want %v", mode, lit, p, got, want)
				}
				if got, want := corr(p, n), rcorr(p, n); got != want {
					t.Fatalf("%s lit %v: corr(%v, %v) = %v, want %v", mode, lit, p, n, got, want)
				}
			}
		}
	}
}
