package main

import (
	"bufio"
	"fmt"
	"os"
	"time"

	"repro/internal/event"
	"repro/internal/operators"
	"repro/internal/temporal"
)

// Span names. A span times one call from the benchmark (or from the timing
// operator wrapper below) into a module's public function.
const (
	spanIncAdvance = iota
	spanIncProcess
	spanMonitorPush
	spanEnginePush
	spanWALSync
	numSpanNames
)

var spanNames = [numSpanNames]string{
	spanIncAdvance:  "inc.Advance",
	spanIncProcess:  "inc.Process",
	spanMonitorPush: "consistency.Monitor.Push",
	spanEnginePush:  "engine.Engine.Push",
	spanWALSync:     "wal.Log.Sync",
}

// Span is one timed call. Times are nanoseconds after the tracer's epoch;
// Parent is the index of the enclosing span (-1 at the root) and Arrival
// the index of the input item being processed.
type Span struct {
	Name       uint8
	Parent     int32
	Arrival    int32
	Start, End int64
}

// Tracer keeps spans in memory; they are written out once, at the end.
type Tracer struct {
	epoch   time.Time
	spans   []Span
	cur     int32
	arrival int32
}

func newTracer() *Tracer { return &Tracer{epoch: time.Now(), cur: -1} }

// SetArrival marks the input item the following spans belong to.
func (t *Tracer) SetArrival(i int) { t.arrival = int32(i) }

// Begin opens a span nested in the current one and returns its index.
func (t *Tracer) Begin(name uint8) int32 {
	i := int32(len(t.spans))
	t.spans = append(t.spans, Span{Name: name, Parent: t.cur, Arrival: t.arrival, Start: int64(time.Since(t.epoch))})
	t.cur = i
	return i
}

// End closes span i.
func (t *Tracer) End(i int32) {
	t.spans[i].End = int64(time.Since(t.epoch))
	t.cur = t.spans[i].Parent
}

// spanStats sums span durations by name: total time, calls, and the time
// covered by each name's direct children.
type spanStats struct {
	total, child [numSpanNames]int64
	calls        [numSpanNames]int64
}

func (t *Tracer) stats() spanStats {
	var st spanStats
	for _, s := range t.spans {
		d := s.End - s.Start
		st.total[s.Name] += d
		st.calls[s.Name]++
		if s.Parent >= 0 {
			st.child[t.spans[s.Parent].Name] += d
		}
	}
	return st
}

// self is a name's total time minus the part its child spans cover.
func (st spanStats) self(name uint8) int64 { return st.total[name] - st.child[name] }

// writeSpans writes every rung's spans as CSV: rung, span index, name,
// parent, arrival index, start and end (ns).
func writeSpans(path string, rungs []string, tracers []*Tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	fmt.Fprintln(w, "rung,span,name,parent,arrival,start_ns,end_ns")
	for r, t := range tracers {
		if t == nil {
			continue
		}
		for i, s := range t.spans {
			fmt.Fprintf(w, "%s,%d,%s,%d,%d,%d,%d\n", rungs[r], i, spanNames[s.Name], s.Parent, s.Arrival, s.Start, s.End)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ---------------------------------------------------------------------------
// Timing operator wrapper

// timedOp wraps a plan stage so that every Advance and Process call the
// consistency monitor makes becomes an inc span. It must not change what
// the monitor does: the optional interfaces the monitor probes for
// (Versioned, Stateless, AdvanceOrdered) are forwarded exactly when the
// inner operator implements them, and Clone returns a wrapper again.
type timedOp struct {
	in operators.Op
	tr *Tracer
}

func (o *timedOp) Name() string   { return o.in.Name() }
func (o *timedOp) Arity() int     { return o.in.Arity() }
func (o *timedOp) StateSize() int { return o.in.StateSize() }

func (o *timedOp) OutputGuarantee(t temporal.Time) temporal.Time { return o.in.OutputGuarantee(t) }

func (o *timedOp) Process(port int, e event.Event) []event.Event {
	s := o.tr.Begin(spanIncProcess)
	out := o.in.Process(port, e)
	o.tr.End(s)
	return out
}

func (o *timedOp) Advance(t temporal.Time) []event.Event {
	s := o.tr.Begin(spanIncAdvance)
	out := o.in.Advance(t)
	o.tr.End(s)
	return out
}

func (o *timedOp) Clone() operators.Op { return wrapTimed(o.in.Clone(), o.tr) }

// The forwarding pieces, embedded per combination of optional interfaces.
type fwdVersioned struct{ v operators.Versioned }

func (f fwdVersioned) Mark() operators.Version           { return f.v.Mark() }
func (f fwdVersioned) Rollback(v operators.Version) bool { return f.v.Rollback(v) }
func (f fwdVersioned) Compact(v operators.Version)       { f.v.Compact(v) }

type fwdOrdered struct{ a operators.AdvanceOrdered }

func (f fwdOrdered) AppendAdvanceKey(dst []byte, e event.Event) []byte {
	return f.a.AppendAdvanceKey(dst, e)
}

type fwdStateless struct{}

func (fwdStateless) StatelessOp() {}

type (
	timedV struct {
		*timedOp
		fwdVersioned
	}
	timedA struct {
		*timedOp
		fwdOrdered
	}
	timedVA struct {
		*timedOp
		fwdVersioned
		fwdOrdered
	}
	timedS struct {
		*timedOp
		fwdStateless
	}
	timedSA struct {
		*timedOp
		fwdStateless
		fwdOrdered
	}
	timedSV struct {
		*timedOp
		fwdStateless
		fwdVersioned
	}
	timedSVA struct {
		*timedOp
		fwdStateless
		fwdVersioned
		fwdOrdered
	}
)

// wrapTimed wraps op, recording its calls in tr.
func wrapTimed(op operators.Op, tr *Tracer) operators.Op {
	base := &timedOp{in: op, tr: tr}
	v, isV := op.(operators.Versioned)
	a, isA := op.(operators.AdvanceOrdered)
	_, isS := op.(operators.Stateless)
	fv, fa := fwdVersioned{v}, fwdOrdered{a}
	switch {
	case isS && isV && isA:
		return timedSVA{base, fwdStateless{}, fv, fa}
	case isS && isV:
		return timedSV{base, fwdStateless{}, fv}
	case isS && isA:
		return timedSA{base, fwdStateless{}, fa}
	case isS:
		return timedS{base, fwdStateless{}}
	case isV && isA:
		return timedVA{base, fv, fa}
	case isV:
		return timedV{base, fv}
	case isA:
		return timedA{base, fa}
	}
	return base
}
