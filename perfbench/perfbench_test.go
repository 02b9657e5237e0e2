package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"reflect"
	"testing"
	"time"

	"repro/internal/consistency"
	"repro/internal/event"
	"repro/internal/operators"
	"repro/internal/temporal"
	"repro/internal/wal"
)

func allWorkloads(t *testing.T) []Workload {
	t.Helper()
	ws, err := loadWorkloads()
	if err != nil {
		t.Fatal(err)
	}
	return ws
}

// encodeAll renders a monitor's output batch byte for byte.
func encodeAll(t *testing.T, dst []byte, evs []event.Event) []byte {
	t.Helper()
	for _, e := range evs {
		var err error
		if dst, err = wal.AppendEvent(dst, e); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// TestTimedOpFidelity pins that the traced run's timing wrapper changes
// nothing the consistency monitor does: over every workload's stream, a
// monitor over the wrapped stage emits byte-identical output and reports
// equal metrics to a monitor over the bare stage.
func TestTimedOpFidelity(t *testing.T) {
	for _, w := range allWorkloads(t) {
		in := w.Generate(1)
		bareP, err := compile()
		if err != nil {
			t.Fatal(err)
		}
		wrapP, err := compile()
		if err != nil {
			t.Fatal(err)
		}
		tr := newTracer()
		bare := consistency.NewMonitor(bareP.Stages[0], bareP.Spec, bareP.MonitorOpts...)
		wrapped := consistency.NewMonitor(wrapTimed(wrapP.Stages[0], tr), wrapP.Spec, wrapP.MonitorOpts...)
		var a, b []byte
		for _, e := range in.Items {
			a = encodeAll(t, a, bare.Push(0, e))
			b = encodeAll(t, b, wrapped.Push(0, e))
		}
		a = encodeAll(t, a, bare.Finish())
		b = encodeAll(t, b, wrapped.Finish())
		if !bytes.Equal(a, b) {
			t.Errorf("%s: wrapped monitor output differs from the bare monitor's", w.Name)
		}
		if ma, mb := bare.Metrics(), wrapped.Metrics(); ma != mb {
			t.Errorf("%s: metrics differ:\n bare    %+v\n wrapped %+v", w.Name, ma, mb)
		}
		if st := tr.stats(); st.calls[spanIncProcess] == 0 || st.calls[spanIncAdvance] == 0 {
			t.Errorf("%s: wrapper recorded no inc spans", w.Name)
		}
	}
}

// fakeOp is a minimal operator; the embedding types below add the
// optional interfaces in every combination. Clone returns *self, the
// whole combined operator.
type fakeOp struct {
	clones *int
	self   *operators.Op
}

func (fakeOp) Name() string                                  { return "fake" }
func (fakeOp) Arity() int                                    { return 1 }
func (fakeOp) Process(int, event.Event) []event.Event        { return nil }
func (fakeOp) Advance(temporal.Time) []event.Event           { return nil }
func (fakeOp) OutputGuarantee(t temporal.Time) temporal.Time { return t }
func (fakeOp) StateSize() int                                { return 0 }
func (f fakeOp) Clone() operators.Op                         { *f.clones++; return *f.self }

type fakeVersions struct{ marks *int }

func (f fakeVersions) Mark() operators.Version       { *f.marks++; return operators.Version{Pos: 7} }
func (fakeVersions) Rollback(operators.Version) bool { return true }
func (fakeVersions) Compact(operators.Version)       {}

type fakeOrdered struct{}

func (fakeOrdered) AppendAdvanceKey(dst []byte, _ event.Event) []byte { return append(dst, 'k') }

type fakeStateless struct{}

func (fakeStateless) StatelessOp() {}

// TestTimedOpForwarding: the wrapper implements Versioned, Stateless and
// AdvanceOrdered exactly when the wrapped operator does, forwards their
// calls, and clones into a wrapper.
func TestTimedOpForwarding(t *testing.T) {
	clones, marks := 0, 0
	v := fakeVersions{marks: &marks}
	combos := []func(b fakeOp) operators.Op{
		func(b fakeOp) operators.Op { return b },
		func(b fakeOp) operators.Op {
			return struct {
				fakeOp
				fakeVersions
			}{b, v}
		},
		func(b fakeOp) operators.Op {
			return struct {
				fakeOp
				fakeOrdered
			}{b, fakeOrdered{}}
		},
		func(b fakeOp) operators.Op {
			return struct {
				fakeOp
				fakeStateless
			}{b, fakeStateless{}}
		},
		func(b fakeOp) operators.Op {
			return struct {
				fakeOp
				fakeVersions
				fakeOrdered
			}{b, v, fakeOrdered{}}
		},
		func(b fakeOp) operators.Op {
			return struct {
				fakeOp
				fakeStateless
				fakeOrdered
			}{b, fakeStateless{}, fakeOrdered{}}
		},
		func(b fakeOp) operators.Op {
			return struct {
				fakeOp
				fakeStateless
				fakeVersions
			}{b, fakeStateless{}, v}
		},
		func(b fakeOp) operators.Op {
			return struct {
				fakeOp
				fakeStateless
				fakeVersions
				fakeOrdered
			}{b, fakeStateless{}, v, fakeOrdered{}}
		},
	}
	var ops []operators.Op
	for _, mk := range combos {
		self := new(operators.Op)
		*self = mk(fakeOp{clones: &clones, self: self})
		ops = append(ops, *self)
	}
	same := func(op, w operators.Op) bool {
		_, v1 := op.(operators.Versioned)
		_, v2 := w.(operators.Versioned)
		_, s1 := op.(operators.Stateless)
		_, s2 := w.(operators.Stateless)
		_, a1 := op.(operators.AdvanceOrdered)
		_, a2 := w.(operators.AdvanceOrdered)
		return v1 == v2 && s1 == s2 && a1 == a2
	}
	for i, op := range ops {
		w := wrapTimed(op, newTracer())
		if !same(op, w) {
			t.Errorf("op %d: wrapper's optional interfaces differ from the wrapped operator's", i)
		}
		before := clones
		c := w.Clone()
		if clones != before+1 {
			t.Errorf("op %d: Clone did not clone the wrapped operator", i)
		}
		if !same(op, c) || reflect.TypeOf(c) != reflect.TypeOf(w) {
			t.Errorf("op %d: Clone returned %T, want a wrapper like %T", i, c, w)
		}
		if vw, ok := w.(operators.Versioned); ok {
			m := marks
			if got := vw.Mark(); got.Pos != 7 || marks != m+1 {
				t.Errorf("op %d: Mark not forwarded", i)
			}
		}
		if aw, ok := w.(operators.AdvanceOrdered); ok {
			if got := aw.AppendAdvanceKey(nil, event.Event{}); string(got) != "k" {
				t.Errorf("op %d: AppendAdvanceKey not forwarded", i)
			}
		}
	}
}

// TestOpenLoopStall injects a stall into the subscriber callback. Latency
// is measured from each input's due time, so the outputs after the stall
// must show it (no coordinated omission), and the generator lag must
// report how far behind schedule the replay fell.
func TestOpenLoopStall(t *testing.T) {
	w, err := findWorkload("fleet_keys")
	if err != nil {
		t.Fatal(err)
	}
	w.Machines, w.Cycles, w.PacedRate, w.PacedWarmup, w.PacedItems = 24, 20, 2000, 0, 0
	e := newEnv(w, 1, t.TempDir())
	const stallAt, stall = 40, 150 * time.Millisecond
	c := &counter{}
	p, _, err := e.paced(c, func(n int) {
		if n == stallAt {
			time.Sleep(stall)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if c.failed != 0 {
		t.Fatalf("paced replay failed: %v", c.errs)
	}
	if len(p.lat) < stallAt+10 {
		t.Fatalf("only %d latency samples", len(p.lat))
	}
	before := percentile(p.lat[:stallAt], 0.5)
	after := p.lat[stallAt] // the first output emitted after the stall
	if time.Duration(after) < stall/2 {
		t.Errorf("first output after a %v stall has latency %v (median before: %v)", stall, time.Duration(after), time.Duration(before))
	}
	late := 0
	for _, l := range p.lat[stallAt:] {
		if time.Duration(l) > stall/4 {
			late++
		}
	}
	if late < 3 {
		t.Errorf("only %d outputs after the stall saw its delay; open-loop latency must count every delayed input", late)
	}
	if lag := time.Duration(percentile(p.lag, 0.99)); lag < stall/4 {
		t.Errorf("generator lag p99 %v does not report a %v stall", lag, stall)
	}
}

// TestSeedChangesInput: another seed gives each workload a different
// stream of about the same size, which still passes the oracle.
func TestSeedChangesInput(t *testing.T) {
	for _, w := range allWorkloads(t) {
		a, b := w.Generate(1), w.Generate(2)
		if reflect.DeepEqual(a.Source, b.Source) {
			t.Errorf("%s: seeds 1 and 2 generate the same stream", w.Name)
		}
		if d := float64(len(b.Items)-len(a.Items)) / float64(len(a.Items)); d > 0.05 || d < -0.05 {
			t.Errorf("%s: seed 2 has %d items, seed 1 %d", w.Name, len(b.Items), len(a.Items))
		}
		if c := w.Generate(2); !reflect.DeepEqual(b.Items, c.Items) {
			t.Errorf("%s: the same seed generated different streams", w.Name)
		}
		e := newEnv(w, 2, t.TempDir())
		c := &counter{}
		if _, err := e.saturated(c); err != nil {
			t.Fatal(err)
		}
		if c.failed != 0 {
			t.Errorf("%s seed 2: oracle failed: %v", w.Name, c.errs)
		}
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json, workloads.json and the metrics
// the program prints in agreement: BENCHMARK.json lists exactly the
// workloads of workloads.json.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	listed := map[string]bool{}
	for _, w := range doc.Workloads {
		listed[w.Name] = true
	}
	known := map[string]bool{}
	for _, w := range allWorkloads(t) {
		known[w.Name] = true
		if !listed[w.Name] {
			t.Errorf("workload %s is not in BENCHMARK.json", w.Name)
		}
	}
	for name := range listed {
		if !known[name] {
			t.Errorf("BENCHMARK.json workload %s is not in workloads.json", name)
		}
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the program prints %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s (%s), program %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEndMetrics)
	check("per_layer", doc.PerLayer, perLayerMetrics)
}

// TestRunRejectsBadArguments: a usage error exits non-zero without a
// result line.
func TestRunRejectsBadArguments(t *testing.T) {
	var out bytes.Buffer
	if code := run([]string{"--workload", "no_such_workload"}, &out, io.Discard); code == 0 || out.Len() != 0 {
		t.Errorf("unknown workload: exit %d, output %q", code, out.String())
	}
}
