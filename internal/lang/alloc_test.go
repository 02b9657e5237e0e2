//go:build !race

package lang

import (
	"testing"

	"repro/internal/event"
)

// TestAllocsCorrKeyPredicates pins the CorrelationKey predicates at zero
// allocations per call: they run once per candidate match, and collecting
// the key values into fresh slices made them a leading allocation site on
// keyed fleet streams. (Skipped under -race: instrumentation changes
// allocation counts.)
func TestAllocsCorrKeyPredicates(t *testing.T) {
	posP := event.Payload{"a.machine": "m7", "a.t": int64(3), "b.machine": "m7", "b.t": int64(5),
		"c.machine": "m7"}
	negP := event.Payload{"c.machine": "m7", "c.t": int64(4)}
	var b binder
	for _, mode := range []string{"EQUAL", "UNIQUE"} {
		pos, corr := b.corrKeyPredicates(Pred{CorrAttr: "machine", CorrMode: mode})
		if n := testing.AllocsPerRun(100, func() { pos(posP) }); n != 0 {
			t.Errorf("%s: pos allocates %.1f per call, want 0", mode, n)
		}
		if n := testing.AllocsPerRun(100, func() { corr(posP, negP) }); n != 0 {
			t.Errorf("%s: corr allocates %.1f per call, want 0", mode, n)
		}
	}
}
