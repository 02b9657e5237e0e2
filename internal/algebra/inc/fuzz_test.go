package inc

import (
	"fmt"
	"sort"
	"testing"

	"repro/internal/algebra"
	"repro/internal/event"
	"repro/internal/operators"
	"repro/internal/temporal"
)

// FuzzIncVsOracle is the native fuzz harness over the differential
// step-checker: fuzzer bytes decode into an operator shape × SC mode × key
// domain × event script (inserts with controlled timestamps and keys,
// aligned full removals, advances — including far jumps that force scope
// pruning — mid-stream clone swaps, and checkpoint capture/rollback/compact
// over the undo journal), which is then driven through the incremental op
// and the frozen semi-naive oracle with byte-exact comparison at every
// step. Keyed shapes run with WithJoinKey, so the
// pushdown's bucket seams (definite, wild and missing-attribute matches)
// are fuzzed against the same oracle. Run it as a fuzzer with
//
//	go test -run '^$' -fuzz '^FuzzIncVsOracle$' -fuzztime 30s ./internal/algebra/inc
//
// (CI performs exactly that smoke run); under plain `go test` the seed
// corpus below executes as regression cases, one per operator shape.

// fuzzShape is one operator configuration the first script byte selects.
type fuzzShape struct {
	name    string
	expr    algebra.Expr
	joinKey string // "" = unkeyed
}

// fuzzShapes covers every operator kind, flat and nested, in both the
// unkeyed and the keyed (pushdown) configuration where predicates make
// keying sound.
func fuzzShapes() []fuzzShape {
	var shapes []fuzzShape
	for name, expr := range exprZoo() {
		shapes = append(shapes, fuzzShape{name: name, expr: expr})
	}
	for name, expr := range keyedZoo() {
		shapes = append(shapes, fuzzShape{name: name, expr: expr, joinKey: "k"})
	}
	// Deterministic selector order (map iteration is not).
	sort.Slice(shapes, func(i, j int) bool { return shapes[i].name < shapes[j].name })
	return shapes
}

// Script opcodes: each step consumes two bytes (c, a). c's low nibble
// selects the action, the rest parameterizes it — see decode below.
const (
	fuzzOpInsertMax = 9  // 0..9: insert (weighted toward inserts)
	fuzzOpRemove    = 10 // 10,11: aligned full removal
	fuzzOpAdvance   = 12 // 12,13: small advance
	fuzzOpClone     = 14 // version/clone ops, sub-selected by a%4 (see decode)
	fuzzOpFarAdv    = 15 // far advance: forces scope pruning
)

func FuzzIncVsOracle(f *testing.F) {
	shapes := fuzzShapes()

	// Seed corpus: every operator shape gets one script exercising all
	// opcodes — inserts across keys and types (with one missing-attribute
	// event), a removal, advances near and far, a clone swap, and the
	// checkpoint sub-opcodes (mark, rollback, compact).
	script := []byte{
		0x00, 0x05, 0x10, 0x09, 0x20, 0x0d, 0x30, 0x11, // 4 inserts, mixed types/keys
		0x0c, 0x02, // advance
		0x40, 0x3c, 0x50, 0x01, 0x90, 0x15, // inserts (incl. missing-attr patterns)
		0x0a, 0x03, // remove
		0x0e, 0x00, // clone swap
		0x60, 0x07, 0x70, 0x0b, // inserts
		0x0f, 0x20, // far advance
		0x80, 0x06, 0x10, 0x0a, // inserts after the prune
		0x0c, 0x04, // advance
		0x0e, 0x01, // mark #0
		0x20, 0x09, 0x30, 0x12, // inserts past the mark
		0x0c, 0x03, // advance past the mark
		0x0e, 0x02, // rollback to mark #0 (j = 0)
		0x40, 0x05, // re-insert along the new timeline
		0x0e, 0x05, // mark #1 (a%4 == 1)
		0x50, 0x0e, // insert
		0x0e, 0x06, // rollback to mark #1 (a%4 == 2, j = 1)
		0x0e, 0x07, // compact to mark #1 (a%4 == 3, j = 1)
		0x60, 0x0d, // insert
		0x0c, 0x05, // advance
	}
	for i, mode := 0, 0; i < len(shapes); i++ {
		seed := append([]byte{byte(i), byte(mode), byte(i % 4)}, script...)
		f.Add(seed)
		mode = (mode + 1) % 4
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		shape := shapes[int(data[0])%len(shapes)]
		mode := scModes()[int(data[1])%len(scModes())]
		keys := []int{1, 2, 3, 8}[int(data[2])%4]

		oracle := algebra.NewPatternOp(shape.expr, mode, "out")
		var opts []OpOption
		if shape.joinKey != "" {
			opts = append(opts, WithJoinKey(shape.joinKey))
		}
		fast := NewOp(shape.expr, mode, "out", opts...)

		types := []string{"A", "B", "C", "X"}
		vs := temporal.Time(0)
		lastAdvance := temporal.MinTime
		nextID := event.ID(1)
		var removable []event.Event

		// Retained checkpoint marks for the versioning sub-opcodes: the
		// journal position paired with a frozen oracle clone plus the driver
		// state needed to resume the script coherently after a rollback.
		// Rolling back to marks[j] invalidates every later mark (the journal
		// spine truncates and positions are reused), so the stack is cut to
		// [:j+1]; a clone swap hands both sides fresh state with an empty
		// journal, so it clears the stack entirely.
		type fuzzMark struct {
			v   operators.Version
			o   *algebra.PatternOp
			rem []event.Event
			la  temporal.Time
			vs  temporal.Time
		}
		var marks []fuzzMark

		body := data[3:]
		if len(body) > 512 {
			body = body[:512] // bound the per-input work
		}
		for i := 0; i+1 < len(body); i += 2 {
			c, a := body[i], body[i+1]
			label := fmt.Sprintf("%s %v keys=%d step=%d", shape.name, mode, keys, i)
			switch op := c & 0x0f; {
			case op <= fuzzOpInsertMax:
				if a&0x03 != 0 { // 1 in 4 shares the previous timestamp
					vs += temporal.Time(a&0x03) + 1
				}
				p := event.Payload{"i": int64(nextID)}
				switch key := int(a>>2) % (keys + 2); {
				case key < keys:
					p["k"] = fmt.Sprintf("k%d", key)
				case key == keys:
					// attribute omitted — the wild path
				default:
					// dotted payload attribute: suffix-visible to the
					// CorrelationKey filters, invisible to exact lookups —
					// must route wild (TestKeyedPairwiseExactLookup).
					p["sub.k"] = "k0"
				}
				e := event.NewInsert(nextID, types[int(c>>4)%len(types)], vs,
					temporal.Infinity, p)
				nextID++
				checkStep(t, label+" insert", oracle, fast,
					fast.Process(0, e), oracle.Process(0, e))
				removable = append(removable, e)
			case op < fuzzOpAdvance: // remove
				if len(removable) == 0 {
					continue
				}
				j := int(a) % len(removable)
				victim := removable[j]
				if victim.V.Start < lastAdvance {
					continue // stay inside the aligned-removal contract
				}
				removable = append(removable[:j], removable[j+1:]...)
				r := event.NewRetract(victim.ID, victim.Type, victim.V.Start, victim.V.Start, nil)
				checkStep(t, label+" remove", oracle, fast,
					fast.Process(0, r), oracle.Process(0, r))
			case op < fuzzOpClone: // advance
				adv := vs.Add(temporal.Duration(a & 0x07))
				if adv > lastAdvance {
					lastAdvance = adv
				}
				checkStep(t, label+" advance", oracle, fast,
					fast.Advance(adv), oracle.Advance(adv))
			case op == fuzzOpClone:
				switch a % 4 {
				case 0: // swap both ops for their clones
					oracle = oracle.Clone().(*algebra.PatternOp)
					fast = fast.Clone().(*Op)
					marks = marks[:0]
					checkExpiryIndexes(t, label+" clone", fast)
				case 1: // checkpoint capture: journal mark + frozen oracle
					marks = append(marks, fuzzMark{
						v:   fast.Mark(),
						o:   oracle.Clone().(*algebra.PatternOp),
						rem: append([]event.Event(nil), removable...),
						la:  lastAdvance,
						vs:  vs,
					})
					checkExpiryIndexes(t, label+" mark", fast)
				case 2: // rollback to a retained mark
					if len(marks) == 0 {
						continue
					}
					j := int(a>>2) % len(marks)
					if !fast.Rollback(marks[j].v) {
						t.Fatalf("%s rollback: retained mark %d refused", label, j)
					}
					oracle = marks[j].o.Clone().(*algebra.PatternOp)
					removable = append(removable[:0], marks[j].rem...)
					lastAdvance, vs = marks[j].la, marks[j].vs
					marks = marks[:j+1]
					checkStep(t, label+" rollback", oracle, fast, nil, nil)
				default: // compact: drop undo history below a retained mark
					if len(marks) == 0 {
						continue
					}
					j := int(a>>2) % len(marks)
					fast.Compact(marks[j].v)
					marks = marks[j:]
					checkStep(t, label+" compact", oracle, fast, nil, nil)
				}
			default: // far advance: pushes the prune horizon past live state
				adv := vs.Add(temporal.Duration(a) + 64)
				if adv > lastAdvance {
					lastAdvance = adv
				}
				checkStep(t, label+" far-advance", oracle, fast,
					fast.Advance(adv), oracle.Advance(adv))
			}
		}
		checkStep(t, shape.name+" finish", oracle, fast,
			fast.Advance(temporal.Infinity), oracle.Advance(temporal.Infinity))
	})
}
