package consistency

import (
	"slices"
	"sort"

	"repro/internal/event"
	"repro/internal/operators"
	"repro/internal/ordkey"
	"repro/internal/temporal"
)

// Monitor is the consistency monitor of Figure 7: it wraps an operational
// module (an operators.Op) and upholds a consistency level under
// out-of-order physical arrival.
//
//	           ┌──────────────────────────────┐
//	input ───► │ consistency monitor          │
//	guarantees │   alignment buffer           │ ───► output
//	           │   checkpoint + input log     │      + output guarantees
//	           │   operational module (Op)    │
//	           └──────────────────────────────┘
//
// Mechanics, by level:
//
//   - Blocking (B > 0): out-of-order events wait in the alignment buffer
//     until an input guarantee (CTI) covers them — or until the stream's
//     Sync frontier has passed them by more than B, at which point they are
//     processed optimistically.
//
//   - Optimism (B < ∞): events are fed to the operator immediately, with
//     the operator speculatively advanced to each event's Sync time so that
//     blocking operators (difference, aggregation) emit early output.
//
//   - Repair (M > 0): the monitor keeps a checkpoint of the operator as of
//     the last input guarantee plus the log of every input since. When a
//     straggler arrives, the operator is rewound to the state just before
//     the straggler's position and the log suffix is replayed with the
//     straggler in its proper place; the difference between the previously
//     emitted output and the replayed output is emitted as compensating
//     retractions and insertions.
//
//   - Forgetting (M < ∞): stragglers older than M behind the frontier are
//     dropped (the weak level's license to leave earlier state wrong), and
//     repair state older than M is folded irrevocably into the checkpoint.
//
// At common sync points all levels have output the same state, which is
// what makes the levels seamlessly switchable (Section 5); the tests verify
// this against a frozen reference implementation, item for item.
//
// Hot-path representation invariants (the performance work of ISSUE 1):
//
//   - log[head:] is the live window, sorted by (sync, seq). Items before
//     head are absorbed into the checkpoint; the window is compacted
//     amortizedly instead of copied per checkpoint. New items enter by
//     binary-search insertion — the window is already sorted.
//
//   - Every net-emitted fact records the (sync, seq) key of the log item
//     whose output produced it (netFact.srcSync/srcSeq). Absorbing a log
//     prefix into the checkpoint then reduces to dropping facts whose
//     source key is covered — an O(table) filter instead of the former
//     full-log replay.
//
//   - Versioned repair (operators.Versioned): every log item records the
//     operator version and the net-fact journal position after it, so a
//     straggler rewinds both in place to the item just before it and
//     replays only itself and the items after it. Repair is O(straggler
//     depth), and the diff visits only the ids the rewind and the fold
//     touched.
//
//   - Legacy repair snapshots (operators that are not Versioned): every
//     snapEvery admitted items the monitor clones the operator and the
//     net-fact table. A straggler replays from the nearest snapshot at or
//     before its position instead of from the checkpoint, making repair
//     O(straggler depth + snapEvery) rather than O(items since the last
//     guarantee). Snapshot state is a derived cache and is excluded from
//     the Metrics state-size axis.
//
//   - The slices returned by Push, SetSpec and Finish alias an internal
//     buffer and are valid only until the next call on this monitor;
//     callers must copy what they keep. All in-repo callers already append
//     the items elsewhere.
type Monitor struct {
	op   operators.Op // live operator
	ckpt operators.Op // operator state as of the last absorbed guarantee (nil on the versioned path)
	spec Spec

	// The versioned checkpoint path: when the operator implements
	// operators.Versioned (and is not stateless), the monitor keeps no
	// second operator copy. Every admitted log item records the operator
	// version after it (an O(1) journal mark) and the position of the
	// net-fact journal fj after it:
	//
	//   - repair rolls the live operator back to the version of the item
	//     just before the straggler, rewinds emitted to the same position,
	//     and replays the straggler and the items after it;
	//   - checkpointTo drives no operator: the base moves to the version of
	//     the last absorbed item, and both journals are compacted below it.
	//
	// base/fbase are the operator version and fj position after the last
	// absorbed item: exactly the checkpoint state.
	vop   operators.Versioned
	base  operators.Version
	fbase int
	// fj is the undo journal of emitted: one entry per mutation, holding the
	// entry it replaced. fj[k] has absolute position fjDrop+k.
	fj     []factUndo
	fjDrop int
	// before holds, per id the current repair touched, the entry emitted had
	// when the repair began: the diff's "old" side.
	before map[event.ID]prior

	// Legacy snapshot cadence, tunable via WithSnapshotCadence (defaults
	// snapEvery/maxSnaps). snapCadence <= 0 disables repair snapshots.
	snapCadence int
	snapBound   int

	log     []logItem // log[head:] is the live window, sorted by (sync, seq)
	head    int
	emitted map[event.ID]*netFact
	gen     map[event.ID]uint64
	buffer  []bufEntry // alignment buffer, sorted by Sync (stable by seq)

	portG         []temporal.Time
	guarantee     temporal.Time
	frontier      temporal.Time // max Sync observed (incl. buffered)
	processedSync temporal.Time // max Sync fed to the live operator
	absSync       temporal.Time // (sync, seq) key of the last log item folded
	absSeq        int           // into the checkpoint
	seq           int
	now           temporal.Time // current CEDR time

	// Legacy path only: the repair snapshot cache and its scratch.
	snaps     []snapshot // repair snapshots, ascending boundary
	sinceSnap int
	dirty     []event.ID              // ids touched by the current repair fold
	spare     map[event.ID]*netFact   // reusable replay table (swapped with emitted)
	tblPool   []map[event.ID]*netFact // recycled snapshot tables

	facts     []netFact     // current net-fact chunk, versioned path (see newFact)
	out       []event.Event // reusable output buffer (valid until next call)
	diffIDs   []event.ID    // reusable diff scratch
	ckptState int           // cached ckpt.StateSize(), changes only on checkpoint
	stateless bool          // op implements operators.Stateless

	// Sharded-execution support (see PushTagged). All of it is inert — and
	// free — on the plain Push path.
	tagging   bool   // current call wants order tags
	sink      *Burst // batch accumulator for the *Into variants (nil = legacy)
	trigger   []byte // tag prefix the current call's outputs nest under
	curClass  byte
	curSync   temporal.Time
	curArr    []byte   // (curClass, curSync, curArr): admit position of the
	tags      [][]byte // item whose processing is emitting; one tag per m.out item
	advKey    func(dst []byte, e event.Event) []byte
	probeLog  int // probe items in the live log window (state-size exempt)
	probeBuf  int // probe items in the alignment buffer (state-size exempt)
	markerLog int // guarantee markers in the live log window

	// maxRetractSync/Seq is the (sync, seq) position of the latest
	// retraction in the live window (MinTime when none). The stateless
	// repair shortcut is only sound when no logged retraction lies at or
	// after the straggler — a later retraction may target the straggler's
	// own fresh output, which only a real replay applies — so it consults
	// this high-water mark and falls back to generic replay past it.
	maxRetractSync temporal.Time
	maxRetractSeq  int

	met Metrics
}

// Output-order tag admission classes: within one externally driven call,
// the monitor admits the pushed item itself first, then buffered releases
// (in (Sync, arrival) order), then the guarantee advance, then emits
// punctuation — and emission follows admission. The class byte encodes
// that, making tag order track emission order even when a buffered release
// carries an older Sync than the pushed item (possible after a
// blocking-bound tightening via SetSpec left events in the buffer).
const (
	classPushed    byte = 1
	classRelease   byte = 2
	classGuarantee byte = 3
	classCTI       byte = 4
)

// Output-order tag phases: within one admitted item, the speculative
// Advance's outputs precede the Process outputs, repair diffs stand alone,
// and punctuation comes last.
const (
	tagAdvance byte = 1
	tagDiff    byte = 2
	tagProcess byte = 3
	tagCTI     byte = 4
)

const (
	// snapEvery is the default repair-snapshot cadence in admitted items
	// (override with WithSnapshotCadence).
	snapEvery = 24
	// maxSnaps is the default bound on retained snapshots; the oldest are
	// dropped first (deep stragglers fall back to the checkpoint).
	maxSnaps = 16
	// factChunk is the largest net-fact chunk newFact allocates.
	factChunk = 32
	// compactAt triggers log-window compaction once the absorbed prefix
	// outweighs the live window.
	compactAt = 64
)

type logItem struct {
	marker bool
	// probe marks an advance-only marker from a sibling shard: the live path
	// speculatively advanced the operator to its Sync (under an optimistic
	// level) but never called Process, and replay and checkpointing must do
	// the same.
	probe bool
	t     temporal.Time // marker guarantee time (the Advance argument)
	// key is the marker's position in the replay order. A guarantee that
	// arrives after the operator has optimistically advanced beyond it was
	// a no-op live, so it must replay at its live position (the processed
	// frontier at push time), not at its own timestamp — otherwise replay
	// would advance the operator at a point the live run never did.
	key  temporal.Time
	port int
	ev   event.Event
	seq  int
	// opt records whether the live path speculatively advanced the
	// operator before this event (true at non-blocking levels). Replay and
	// checkpointing must reproduce the same calls even if the level has
	// changed since, so the policy travels with the item.
	opt bool
	// stateAfter is the operator's StateSize after this item was applied to
	// the sorted prefix ending at it (maintained on the versioned path
	// only; repair rewrites it for the replayed suffix). It lets
	// checkpointTo report the exact checkpoint state size without holding a
	// checkpoint operator to measure.
	stateAfter int
	// ver and fpos are the operator version and the net-fact journal
	// position after this item (versioned path only; repair re-marks the
	// replayed suffix). A straggler rewinds to its predecessor's pair.
	ver  operators.Version
	fpos int
}

func (li logItem) sync() temporal.Time {
	if li.marker {
		return li.key
	}
	return li.ev.Sync()
}

type bufEntry struct {
	port    int
	ev      event.Event
	arrival temporal.Time
	seq     int
	probe   bool
	ext     []byte // external arrival key (sharded execution; owned copy)
}

// netFact entries are stored by pointer and shared freely between the live
// table, the spare table, and snapshot tables — a netFact is immutable once
// published; every update replaces the pointer (copy-on-write). This keeps
// table copies allocation-free pointer shares (a by-value map element this
// large would be stored indirectly by the runtime and heap-allocate on
// every assignment, including pure copies).
type netFact struct {
	ev  event.Event // net emitted fact (V is the current net interval)
	gen uint64      // generation used in the physical output ID
	// srcSync/srcSeq identify the log item whose output produced the fact.
	// An item is absorbed into the checkpoint exactly when its key is <=
	// the absorbed boundary, so "fact is final" is a key comparison.
	srcSync temporal.Time
	srcSeq  int
}

// factUndo is one net-fact journal entry: the entry id held before a
// mutation (existed false: none).
type factUndo struct {
	id      event.ID
	prev    *netFact
	existed bool
}

// prior is an id's net-fact entry as a repair found it.
type prior struct {
	nf  *netFact
	had bool
}

// keyLE reports (a, as) <= (b, bs) in the log's (sync, seq) order.
func keyLE(a temporal.Time, as int, b temporal.Time, bs int) bool {
	return a < b || (a == b && as <= bs)
}

// snapshot is a legacy-path repair cache entry: an operator clone and the
// net-fact table as of the log prefix ending at boundary (bSync, bSeq).
type snapshot struct {
	bSync temporal.Time
	bSeq  int
	// absSync/absSeq record the checkpoint boundary at creation time; when
	// it still matches the monitor's, the table holds no absorbed facts and
	// repair can skip the staleness filter.
	absSync temporal.Time
	absSeq  int
	op      operators.Op
	tbl     map[event.ID]*netFact
}

// Metrics quantifies the three axes of Figure 8 — blocking, state size and
// output size — plus the repair machinery's activity.
type Metrics struct {
	InputEvents int
	InputCTIs   int

	OutputInserts     int
	OutputRetractions int
	OutputCTIs        int

	// Compensations counts retractions emitted to repair optimistic output
	// (a subset of OutputRetractions).
	Compensations int
	// Dropped counts stragglers forgotten because they were older than M.
	Dropped int
	// Violations counts events that arrived in violation of a provider
	// guarantee; they are rejected.
	Violations int
	// Replays counts checkpoint rollbacks.
	Replays int

	// BlockedEvents and TotalBlocking measure alignment-buffer residency in
	// CEDR time.
	BlockedEvents int
	TotalBlocking temporal.Duration

	// MaxState is the high-water mark of buffer + log + operator state.
	MaxState int
	CurState int
}

// OutputEvents is the total number of data items emitted.
func (m Metrics) OutputEvents() int { return m.OutputInserts + m.OutputRetractions }

// MeanBlocking is the average CEDR-time residency of blocked events.
func (m Metrics) MeanBlocking() float64 {
	if m.BlockedEvents == 0 {
		return 0
	}
	return float64(m.TotalBlocking) / float64(m.BlockedEvents)
}

// MonitorOption configures a Monitor beyond its consistency level.
type MonitorOption func(*Monitor)

// WithSnapshotCadence overrides the legacy path's repair-snapshot policy: a
// snapshot every `every` admitted items, keeping at most `max`. every <= 0
// disables snapshots entirely (repair always rebuilds from the checkpoint
// state); max <= 0 keeps the default bound. It has no effect on Versioned
// operators, whose repair rewinds to the straggler's predecessor exactly.
func WithSnapshotCadence(every, max int) MonitorOption {
	return func(m *Monitor) {
		m.snapCadence = every
		if max > 0 {
			m.snapBound = max
		}
	}
}

// NewMonitor wraps op with a consistency monitor at the given level.
func NewMonitor(op operators.Op, spec Spec, opts ...MonitorOption) *Monitor {
	portG := make([]temporal.Time, op.Arity())
	for i := range portG {
		portG[i] = temporal.MinTime
	}
	_, stateless := op.(operators.Stateless)
	var advKey func([]byte, event.Event) []byte
	if ao, ok := op.(operators.AdvanceOrdered); ok {
		advKey = ao.AppendAdvanceKey
	}
	m := &Monitor{
		stateless:      stateless,
		advKey:         advKey,
		op:             op,
		spec:           spec,
		emitted:        map[event.ID]*netFact{},
		gen:            map[event.ID]uint64{},
		portG:          portG,
		guarantee:      temporal.MinTime,
		frontier:       temporal.MinTime,
		processedSync:  temporal.MinTime,
		absSync:        temporal.MinTime,
		maxRetractSync: temporal.MinTime,
		snapCadence:    snapEvery,
		snapBound:      maxSnaps,
	}
	for _, o := range opts {
		o(m)
	}
	if vop, ok := op.(operators.Versioned); ok && !stateless {
		// Versioned path: no checkpoint operator at all. The genesis mark is
		// the base — the empty prefix's state — and checkpointTo slides it
		// forward as guarantees absorb the log.
		m.vop = vop
		m.base = vop.Mark()
		m.before = map[event.ID]prior{}
		m.ckptState = op.StateSize()
	} else {
		m.ckpt = op.Clone()
		m.ckptState = m.ckpt.StateSize()
	}
	return m
}

// Spec returns the monitor's consistency level.
func (m *Monitor) Spec() Spec { return m.spec }

// Metrics returns a snapshot of the monitor's counters.
func (m *Monitor) Metrics() Metrics { return m.met }

// CurState returns the live state-size counter alone, without copying the
// full Metrics struct — the sharded runtime samples it once per input item
// for its per-item state traces, where the struct copy is measurable.
func (m *Monitor) CurState() int { return m.met.CurState }

// Guarantee returns the current combined input guarantee.
func (m *Monitor) Guarantee() temporal.Time { return m.guarantee }

// WindowMarkers returns the number of guarantee markers in the live log
// window. Sharded metric combination needs it: punctuation is broadcast, so
// every shard logs the same marker, but the single-shard equivalent state
// counts it once.
func (m *Monitor) WindowMarkers() int { return m.markerLog }

// SetSpec switches the consistency level at runtime. The paper observes
// that at common sync points every level holds the same output state, so
// switching at a sync point is seamless; switching between sync points
// changes only how pending and future input is treated. A loosened blocking
// bound may release buffered events, which are returned. The returned slice
// is valid until the next call on this monitor.
func (m *Monitor) SetSpec(s Spec) []event.Event {
	out, _ := m.setSpec(s, nil, nil, nil)
	return out
}

// SetSpecTagged is SetSpec for sharded execution: released output carries
// order tags (see PushTagged). Both returned slices are valid until the
// next call on this monitor.
func (m *Monitor) SetSpecTagged(s Spec, arrival, trigger []byte) ([]event.Event, [][]byte) {
	return m.setSpec(s, arrival, trigger, nil)
}

// SetSpecTaggedInto is SetSpecTagged appending into a caller-owned Burst
// (see PushTaggedInto).
func (m *Monitor) SetSpecTaggedInto(s Spec, arrival, trigger []byte, sink *Burst) {
	m.setSpec(s, arrival, trigger, sink)
}

func (m *Monitor) setSpec(s Spec, arrival, trigger []byte, sink *Burst) ([]event.Event, [][]byte) {
	m.beginCall(arrival, trigger, sink)
	m.spec = s
	m.releaseTimedOut()
	m.trimMemory()
	m.sampleState()
	return m.endCall()
}

// Push delivers one physical stream item (data or CTI) to port. The item's
// C.Start must carry its CEDR arrival time. It returns the physical output
// items, stamped with the current CEDR time. The returned slice is valid
// until the next call on this monitor.
func (m *Monitor) Push(port int, e event.Event) []event.Event {
	out, _ := m.push(port, e, nil, nil, false, nil)
	return out
}

// PushTagged is Push for sharded execution. arrival is an order-preserving
// byte key (package ordkey) placing this item in the global arrival order
// across all sibling shard monitors; trigger is the tag prefix the outputs
// nest under (nil at the pipeline head). probe marks an advance-only marker
// for an event routed to a sibling shard: the monitor advances its operator
// to the probe's Sync exactly as it would for a local event — so every
// shard observes identical advance boundaries and emits identical per-key
// output — but never calls Process and keeps the probe out of every metric
// and state count.
//
// Each output item carries an order tag; sorting the union of all sibling
// monitors' outputs for one input item by tag reproduces the exact sequence
// a single un-sharded monitor would have emitted (internal/delivery's merge
// stage does this). Both returned slices are valid until the next call.
func (m *Monitor) PushTagged(port int, e event.Event, arrival, trigger []byte, probe bool) ([]event.Event, [][]byte) {
	return m.push(port, e, arrival, trigger, probe, nil)
}

// PushTaggedInto is PushTagged for batched sharded execution: instead of
// returning per-call slices with freshly allocated tags, it appends this
// call's outputs (CEDR-time-stamped) and their order tags to sink, with
// the tag bytes carved from sink.Arena. A worker accumulates a whole run
// of input items into one Burst this way without any per-output
// allocation once the burst's buffers have grown.
func (m *Monitor) PushTaggedInto(port int, e event.Event, arrival, trigger []byte, probe bool, sink *Burst) {
	m.push(port, e, arrival, trigger, probe, sink)
}

func (m *Monitor) push(port int, e event.Event, arrival, trigger []byte, probe bool, sink *Burst) ([]event.Event, [][]byte) {
	if port < 0 || port >= len(m.portG) {
		return nil, nil
	}
	m.beginCall(arrival, trigger, sink)
	if e.C.Start > m.now {
		m.now = e.C.Start
	}
	if e.IsCTI() {
		m.met.InputCTIs++
		m.pushCTI(port, e.Sync(), arrival)
	} else {
		if !probe {
			m.met.InputEvents++
		}
		m.pushData(port, e, probe, arrival)
	}
	m.trimMemory()
	m.sampleState()
	return m.endCall()
}

// beginCall resets the output buffer and arms or disarms tagging for one
// externally driven call.
func (m *Monitor) beginCall(arrival, trigger []byte, sink *Burst) {
	m.out = m.out[:0]
	m.tagging = arrival != nil
	m.sink = sink
	m.trigger = trigger
	m.tags = m.tags[:0]
}

// endCall finishes one externally driven call. On the legacy tagged path
// it returns the stamped output buffer and the per-call tag slice; on the
// batch path (a sink armed by beginCall) it appends the stamped outputs to
// the sink — whose tags accumulated there directly — and returns nil.
func (m *Monitor) endCall() ([]event.Event, [][]byte) {
	if s := m.sink; s != nil {
		m.sink = nil
		for i := range m.out {
			m.out[i].C = temporal.From(m.now)
		}
		s.Evs = append(s.Evs, m.out...)
		return nil, nil
	}
	return m.stampOut(), m.tags
}

// appendTag records the order tag of the output item just appended to
// m.out. It must be called exactly once per appended item on tagged calls;
// (m.curSync, m.curArr) identify the admitted item whose processing is
// emitting.
func (m *Monitor) appendTag(phase byte, id event.ID, ev *event.Event) {
	if !m.tagging {
		return
	}
	if s := m.sink; s != nil {
		off := len(s.Arena)
		s.Arena = m.buildTag(s.Arena, phase, id, ev)
		s.Tags = append(s.Tags, s.Arena[off:len(s.Arena):len(s.Arena)])
		return
	}
	// Worst-case size: class + sync (9) + escaped arrival (2·len+2) + phase
	// + the widest subkey (PatternOp's 32-byte advance key), rounded up so
	// one allocation always suffices.
	t := make([]byte, 0, len(m.trigger)+2*len(m.curArr)+48)
	m.tags = append(m.tags, m.buildTag(t, phase, id, ev))
}

// buildTag appends one order tag's bytes to t and returns the extended
// slice.
func (m *Monitor) buildTag(t []byte, phase byte, id event.ID, ev *event.Event) []byte {
	t = append(t, m.trigger...)
	t = append(t, m.curClass)
	t = ordkey.AppendInt(t, int64(m.curSync))
	t = ordkey.AppendBytes(t, m.curArr)
	t = append(t, phase)
	switch phase {
	case tagDiff:
		t = ordkey.AppendUint(t, uint64(id))
	case tagAdvance:
		if m.advKey != nil && ev != nil {
			t = m.advKey(t, *ev)
		}
	}
	return t
}

func (m *Monitor) pushCTI(port int, t temporal.Time, arrival []byte) {
	if t > m.portG[port] {
		m.portG[port] = t
	}
	g := m.portG[0]
	for _, pg := range m.portG[1:] {
		if pg < g {
			g = pg
		}
	}
	if g <= m.guarantee {
		return
	}
	m.guarantee = g
	if g > m.frontier {
		m.frontier = g
	}
	// Clean releases: buffered events covered by the guarantee, in Sync
	// order.
	m.releaseCovered(g)
	// Record and apply the guarantee itself, positioned where the live
	// operator actually executes it.
	key := g
	if m.processedSync > key {
		key = m.processedSync
	}
	sq := m.nextSeq()
	if m.tagging {
		m.curClass, m.curSync, m.curArr = classGuarantee, key, arrival
	}
	at := m.insertLog(logItem{marker: true, t: g, key: key, seq: sq})
	m.emit(key, sq, tagAdvance, m.op.Advance(g))
	m.markItem(at)
	// Absorb everything the guarantee finalizes into the checkpoint.
	m.checkpointTo(g)
	// Timed-out releases may also be due (the guarantee moved the frontier).
	m.releaseTimedOut()
	og := m.op.OutputGuarantee(g)
	m.met.OutputCTIs++
	if m.tagging {
		// g is identical on every sibling shard (punctuation is broadcast),
		// so the punctuation tags match exactly and the merge collapses the
		// redundant copies to one.
		m.curClass, m.curSync, m.curArr = classCTI, g, arrival
	}
	m.out = append(m.out, event.NewCTI(og))
	m.appendTag(tagCTI, 0, nil)
}

func (m *Monitor) pushData(port int, e event.Event, probe bool, ext []byte) {
	if e.Sync() < m.guarantee {
		if !probe {
			m.met.Violations++
		}
		return
	}
	if e.Sync() > m.frontier {
		m.frontier = e.Sync()
	}
	// Weak levels forget stragglers beyond the memory horizon.
	if m.spec.M != Unbounded && e.Sync() < m.frontier.Add(-m.spec.M) {
		if !probe {
			m.met.Dropped++
		}
		return
	}
	if m.spec.B > 0 && e.Sync() >= m.processedSync {
		// In-order so far: hold for possible stragglers. The buffer is kept
		// sorted by binary insertion (upper bound, so equal Syncs keep
		// arrival order).
		be := bufEntry{port: port, ev: e, arrival: m.now, seq: m.nextSeq(), probe: probe}
		if m.tagging {
			be.ext = append([]byte(nil), ext...)
		}
		if probe {
			m.probeBuf++
		}
		s := e.Sync()
		i := sort.Search(len(m.buffer), func(k int) bool { return m.buffer[k].ev.Sync() > s })
		m.buffer = append(m.buffer, bufEntry{})
		copy(m.buffer[i+1:], m.buffer[i:])
		m.buffer[i] = be
	} else {
		m.admit(classPushed, port, e, probe, ext)
	}
	m.releaseTimedOut()
}

// releaseCovered processes buffered events whose Sync the guarantee covers.
func (m *Monitor) releaseCovered(g temporal.Time) {
	i := 0
	for ; i < len(m.buffer); i++ {
		if m.buffer[i].ev.Sync() > g {
			break
		}
		be := m.buffer[i]
		if be.probe {
			m.probeBuf--
		} else {
			m.met.BlockedEvents++
			m.met.TotalBlocking += m.now.Sub(be.arrival)
		}
		m.admit(classRelease, be.port, be.ev, be.probe, be.ext)
	}
	m.buffer = m.buffer[i:]
}

// releaseTimedOut processes buffered events whose blocking budget B has
// been exhausted by frontier progress.
func (m *Monitor) releaseTimedOut() {
	if len(m.buffer) == 0 || m.spec.B == Unbounded {
		return
	}
	i := 0
	for ; i < len(m.buffer); i++ {
		be := m.buffer[i]
		if be.ev.Sync().Add(m.spec.B) >= m.frontier {
			break
		}
		if be.probe {
			m.probeBuf--
		} else {
			m.met.BlockedEvents++
			m.met.TotalBlocking += m.now.Sub(be.arrival)
		}
		m.admit(classRelease, be.port, be.ev, be.probe, be.ext)
	}
	m.buffer = m.buffer[i:]
}

// admit feeds one event to the live operator, via the fast path when it is
// in order and via rollback and replay when it is a straggler. Probes
// advance but never Process.
func (m *Monitor) admit(class byte, port int, e event.Event, probe bool, ext []byte) {
	li := logItem{port: port, probe: probe, ev: e, seq: m.nextSeq(), opt: m.spec.B != Unbounded}
	if m.tagging {
		m.curClass, m.curSync, m.curArr = class, e.Sync(), ext
	}
	if e.Sync() >= m.processedSync {
		// Fast path: the item extends the sorted window.
		at := m.insertLog(li)
		src := e.Sync()
		if li.opt {
			m.emit(src, li.seq, tagAdvance, m.op.Advance(src))
		}
		if !probe {
			m.emit(src, li.seq, tagProcess, m.op.Process(port, e))
		}
		m.markItem(at)
		m.processedSync = src
		m.maybeSnapshot()
		return
	}
	// Straggler: roll back and replay.
	if !probe {
		m.met.Replays++
	}
	at := m.insertLog(li)
	if m.vop != nil {
		m.rewind(at)
		return
	}
	if m.stateless {
		if li.probe {
			// A probe has no Process call, so replaying it through a
			// stateless operator cannot change the net-fact table; logging
			// it (above) is all a future replay needs.
			return
		}
		if m.repairStateless(li) {
			return
		}
	}
	m.repair(li)
}

// repairStateless handles a straggler through a stateless operator without
// rollback or replay: the operator's outputs depend only on the input, so
// the straggler's own outputs are the complete delta — provided none of
// them collides with existing state, where fold order against later items
// would matter (then the generic replay decides). It reports whether the
// repair was completed.
func (m *Monitor) repairStateless(li logItem) bool {
	// A retraction logged at or after the straggler's position may target
	// the straggler's own output — an interaction only a real replay
	// applies in the right order. (A retraction straggler is itself already
	// in the log, so retraction stragglers always take the generic path.)
	if keyLE(li.sync(), li.seq, m.maxRetractSync, m.maxRetractSeq) {
		return false
	}
	// A full replay would advance the rolled-back operator to li's sync
	// before processing it; for a stateless operator Advance emits nothing
	// and keeps no frontier, so Process on the live operator is identical.
	outs := m.op.Process(li.port, li.ev)
	for _, e := range outs {
		nf, ok := m.emitted[e.ID]
		if ok && keyLE(nf.srcSync, nf.srcSeq, li.sync(), li.seq) {
			// The fact this output lands on was produced at or before the
			// straggler's replay position; the net result depends on the
			// per-id fold order. Fall back to the generic path.
			return false
		}
		if !ok && e.Kind == event.Retract {
			continue // retracting an absent fact is a no-op at any position
		}
		// ok && producer after the straggler: a later producer overwrites
		// whatever the straggler contributes — also a no-op.
	}
	// Emit exactly what the reference replay's diff would: the brand-new
	// facts, in ascending fact-ID order, under the retired-generation
	// counter, counted as plain inserts.
	ids := m.diffIDs[:0]
	for _, e := range outs {
		if _, ok := m.emitted[e.ID]; !ok && e.Kind != event.Retract {
			ids = append(ids, e.ID)
		}
	}
	slices.Sort(ids)
	m.diffIDs = ids
	src, sq := li.sync(), li.seq
	var prev event.ID
	for i, id := range ids {
		if i > 0 && id == prev {
			continue
		}
		prev = id
		// Fold semantics: the last insert for an id wins.
		last := -1
		for j, e := range outs {
			if e.ID == id && e.Kind != event.Retract {
				last = j
			}
		}
		e := outs[last]
		ng := m.gen[id]
		ins := e
		ins.ID = event.Pair(id, event.ID(ng))
		m.out = append(m.out, ins)
		m.appendTag(tagDiff, id, nil)
		m.met.OutputInserts++
		m.emitted[id] = m.newFact(netFact{ev: e, gen: ng, srcSync: src, srcSeq: sq})
	}
	return true
}

// rewind is the versioned path's repair of the straggler just inserted at
// log index at. It rolls the operator and the net-fact table back to the
// state after the item before it (the base when there is none), replays the
// straggler and every later item with the same calls the live path made,
// re-marks each, and emits the compensating deltas for the ids the rewind
// and the fold touched.
func (m *Monitor) rewind(at int) {
	ver, fpos := m.base, m.fbase
	if at > m.head {
		prev := &m.log[at-1]
		ver, fpos = prev.ver, prev.fpos
	}
	if !m.vop.Rollback(ver) {
		panic("consistency: log item version no longer rollbackable")
	}
	clear(m.before)
	for n := fpos - m.fjDrop; len(m.fj) > n; {
		u := m.fj[len(m.fj)-1]
		m.fj[len(m.fj)-1] = factUndo{}
		m.fj = m.fj[:len(m.fj)-1]
		m.touch(u.id)
		// An entry the checkpoint has absorbed since it was replaced is final
		// and gone from the table; the rewound table must not revive it.
		if u.existed && !keyLE(u.prev.srcSync, u.prev.srcSeq, m.absSync, m.absSeq) {
			m.emitted[u.id] = u.prev
		} else {
			delete(m.emitted, u.id)
		}
	}
	for i := at; i < len(m.log); i++ {
		item := m.log[i]
		if item.marker {
			m.refold(item.key, item.seq, m.op.Advance(item.t))
		} else {
			if item.opt {
				m.refold(item.ev.Sync(), item.seq, m.op.Advance(item.ev.Sync()))
			}
			if !item.probe {
				m.refold(item.ev.Sync(), item.seq, m.op.Process(item.port, item.ev))
			}
		}
		m.markItem(i)
	}
	ids := m.diffIDs[:0]
	for id := range m.before {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	m.diffIDs = ids
	for _, id := range ids {
		old := m.before[id]
		nw, hasNew := m.emitted[id]
		if p := m.compensate(id, old.nf, old.had, nw, hasNew); p != nil {
			m.putFact(id, nw, true, p)
		}
	}
	// A huge repair must not leave every later clear paying for its size.
	if len(m.before) > 4096 {
		m.before = map[event.ID]prior{}
	}
}

// markItem records the operator version, net-fact journal position and
// state size after log item i (versioned path only).
func (m *Monitor) markItem(i int) {
	if m.vop == nil {
		return
	}
	it := &m.log[i]
	it.stateAfter = m.op.StateSize()
	it.ver = m.vop.Mark()
	it.fpos = m.fjDrop + len(m.fj)
}

// touch records id's net-fact entry as the current repair found it, on the
// id's first touch, and returns that entry.
func (m *Monitor) touch(id event.ID) prior {
	p, seen := m.before[id]
	if !seen {
		p.nf, p.had = m.emitted[id]
		m.before[id] = p
	}
	return p
}

// putFact replaces id's net-fact entry cur (had: present) with nf, deleting
// it when nf is nil, and journals cur on the versioned path.
func (m *Monitor) putFact(id event.ID, cur *netFact, had bool, nf *netFact) {
	if m.vop != nil {
		m.fj = append(m.fj, factUndo{id: id, prev: cur, existed: had})
	}
	if nf == nil {
		delete(m.emitted, id)
	} else {
		m.emitted[id] = nf
	}
}

// refold applies replayed operator outputs to the live net-fact table in
// place, without emitting. A replayed output that reproduces the entry the
// repair started from shares it, so the diff recognizes the untouched fact
// by pointer identity.
func (m *Monitor) refold(srcSync temporal.Time, srcSeq int, outs []event.Event) {
	for _, e := range outs {
		cur, ok := m.emitted[e.ID]
		if e.Kind == event.Retract {
			if !ok {
				continue
			}
			m.touch(e.ID)
			var next *netFact
			if e.V.End > cur.ev.V.Start {
				shrunk := *cur // copy-on-write: cur may be journaled
				shrunk.ev.V.End = e.V.End
				next = m.newFact(shrunk)
			}
			m.putFact(e.ID, cur, true, next)
			continue
		}
		p := m.touch(e.ID)
		nf := p.nf
		if !p.had || nf.srcSync != srcSync || nf.srcSeq != srcSeq || !nf.ev.Identical(e) {
			nf = m.newFact(netFact{ev: e, srcSync: srcSync, srcSeq: srcSeq})
		}
		m.putFact(e.ID, cur, ok, nf)
	}
}

// repair is the legacy path's straggler repair: it rebuilds the operator
// from the latest snapshot preceding the straggler li (falling back to the
// checkpoint operator) by cloning, replays the log suffix into a scratch
// net-fact table, and emits the compensating deltas.
func (m *Monitor) repair(li logItem) {
	s, q := li.sync(), li.seq
	// Snapshots whose prefix spans the straggler's position were built
	// without it and are no longer reachable states.
	for len(m.snaps) > 0 {
		sn := &m.snaps[len(m.snaps)-1]
		if sn.bSync > s || (sn.bSync == s && sn.bSeq > q) {
			m.recycle(sn.tbl)
			m.snaps[len(m.snaps)-1] = snapshot{}
			m.snaps = m.snaps[:len(m.snaps)-1]
			continue
		}
		break
	}
	start := m.head
	// bSync/bSeq is the replay's start boundary: facts whose producer is at
	// or before it are inherited and cannot silently vanish, so the diff
	// only needs to visit fold-touched ids plus live facts produced by the
	// replayed suffix.
	bSync, bSeq := m.absSync, m.absSeq
	var fresh operators.Op
	tbl := m.spare
	if tbl == nil {
		// Prefer a recycled snapshot table over a fresh allocation.
		if n := len(m.tblPool); n > 0 {
			tbl = m.tblPool[n-1]
			m.tblPool[n-1] = nil
			m.tblPool = m.tblPool[:n-1]
			clear(tbl)
		} else {
			tbl = make(map[event.ID]*netFact, len(m.emitted)+8)
		}
	} else {
		clear(tbl)
	}
	m.spare = nil
	m.dirty = m.dirty[:0]
	if n := len(m.snaps); n > 0 {
		sn := m.snaps[n-1]
		fresh = sn.op.Clone()
		for id, nf := range sn.tbl {
			tbl[id] = nf
		}
		start = m.searchAfter(sn.bSync, sn.bSeq)
		bSync, bSeq = sn.bSync, sn.bSeq
		if sn.absSync != m.absSync || sn.absSeq != m.absSeq {
			// The snapshot predates a checkpoint; drop facts the checkpoint
			// has already finalized so the table matches a replay from the
			// current checkpoint.
			for id, nf := range tbl {
				if keyLE(nf.srcSync, nf.srcSeq, m.absSync, m.absSeq) {
					delete(tbl, id)
				}
			}
		}
	} else {
		fresh = m.ckpt.Clone()
	}
	m.sinceSnap = 0
	var created []map[event.ID]*netFact
	for i := start; i < len(m.log); i++ {
		item := m.log[i]
		if item.marker {
			m.foldInto(tbl, item.key, item.seq, fresh.Advance(item.t))
		} else {
			if item.opt {
				m.foldInto(tbl, item.ev.Sync(), item.seq, fresh.Advance(item.ev.Sync()))
			}
			if !item.probe {
				m.foldInto(tbl, item.ev.Sync(), item.seq, fresh.Process(item.port, item.ev))
			}
		}
		// Re-seed the snapshot cache as the replay walks forward, so
		// straggler bursts do not degenerate to checkpoint replays.
		m.sinceSnap++
		if m.sinceSnap >= m.snapCadence && i+1 < len(m.log) && m.wantSnapshots() {
			ct := m.copyTable(tbl)
			created = append(created, ct)
			m.addSnapshot(snapshot{bSync: item.sync(), bSeq: item.seq,
				absSync: m.absSync, absSeq: m.absSeq, op: fresh.Clone(), tbl: ct})
			m.sinceSnap = 0
		}
	}
	// Live facts produced by the replayed suffix either got re-derived
	// (then fold sharing makes them pointer-equal and diff skips them) or
	// vanished in the new timeline; either way they are diff candidates.
	// Facts from before the boundary are inherited bit-identical and need
	// no visit unless the fold touched them.
	for id, nf := range m.emitted {
		if !keyLE(nf.srcSync, nf.srcSeq, bSync, bSeq) {
			m.dirty = append(m.dirty, id)
		}
	}
	m.op = fresh
	m.diff(tbl)
	// Snapshots taken during this replay captured entries before diff
	// patched their generations. Re-point them at the live entries where
	// they denote the same fact, so a later repair inheriting them below
	// its boundary carries the correct generation without a diff visit.
	for _, ct := range created {
		for id, nf := range ct {
			if live, ok := tbl[id]; ok && nf != live && nf.gen != live.gen &&
				nf.srcSync == live.srcSync && nf.srcSeq == live.srcSeq &&
				nf.ev.Identical(live.ev) {
				ct[id] = live
			}
		}
	}
	// The old live table becomes the next repair's scratch; its buckets are
	// reused instead of reallocated.
	m.spare = m.emitted
	m.emitted = tbl
}

// insertLog places li at its (sync, seq) position in the live window by
// binary search — the window is already sorted, so insertion replaces the
// former full-log sort. The new item carries the largest seq ever issued,
// so the upper bound after its key is its unique position; fast-path items
// land at the end with zero movement. It returns the item's index.
func (m *Monitor) insertLog(li logItem) int {
	if li.probe {
		m.probeLog++
	}
	if li.marker {
		m.markerLog++
	}
	if !li.marker && !li.probe && li.ev.Kind == event.Retract {
		s := li.ev.Sync()
		if s > m.maxRetractSync || (s == m.maxRetractSync && li.seq > m.maxRetractSeq) {
			m.maxRetractSync, m.maxRetractSeq = s, li.seq
		}
	}
	ls := li.sync()
	// Fast path: the item extends the window in order (the overwhelmingly
	// common case — every admit fast-path item and every released buffer
	// entry lands here), so the binary search and the shift are skipped.
	if n := len(m.log); n == m.head {
		m.log = append(m.log, li)
		return n
	} else if ts := m.log[n-1].sync(); ts < ls || (ts == ls && m.log[n-1].seq <= li.seq) {
		m.log = append(m.log, li)
		return n
	}
	i := m.searchAfter(ls, li.seq)
	m.log = append(m.log, logItem{})
	copy(m.log[i+1:], m.log[i:])
	m.log[i] = li
	return i
}

// searchAfter returns the index of the first window item ordered after the
// (sync, seq) boundary.
func (m *Monitor) searchAfter(bSync temporal.Time, bSeq int) int {
	return sort.Search(len(m.log)-m.head, func(k int) bool {
		it := &m.log[m.head+k]
		is := it.sync()
		return is > bSync || (is == bSync && it.seq > bSeq)
	}) + m.head
}

func (m *Monitor) wantSnapshots() bool {
	// Snapshots serve the legacy path only (the versioned path marks every
	// item), and only pay off where repair can happen: optimistic levels
	// (B < ∞) with memory to repair (M > 0). Strong never replays; weak(0)
	// drops every straggler. Stateless operators repair without replay, so
	// they skip the cache entirely. A non-positive cadence disables the
	// cache outright.
	return m.vop == nil && m.spec.B != Unbounded && m.spec.M != 0 && !m.stateless && m.snapCadence > 0
}

// maybeSnapshot records a legacy repair snapshot at the current end of the
// log every snapCadence admitted items.
func (m *Monitor) maybeSnapshot() {
	if !m.wantSnapshots() {
		return
	}
	m.sinceSnap++
	if m.sinceSnap < m.snapCadence || len(m.log) == m.head {
		return
	}
	last := &m.log[len(m.log)-1]
	m.addSnapshot(snapshot{bSync: last.sync(), bSeq: last.seq,
		absSync: m.absSync, absSeq: m.absSeq, op: m.op.Clone(), tbl: m.copyTable(m.emitted)})
	m.sinceSnap = 0
}

func (m *Monitor) addSnapshot(sn snapshot) {
	if len(m.snaps) >= m.snapBound {
		m.recycle(m.snaps[0].tbl)
		copy(m.snaps, m.snaps[1:])
		m.snaps[len(m.snaps)-1] = sn
		return
	}
	m.snaps = append(m.snaps, sn)
}

// copyTable duplicates a net-fact table (sharing the immutable entries),
// preferring a recycled map from discarded snapshots over a fresh
// allocation.
func (m *Monitor) copyTable(tbl map[event.ID]*netFact) map[event.ID]*netFact {
	var out map[event.ID]*netFact
	if n := len(m.tblPool); n > 0 {
		out = m.tblPool[n-1]
		m.tblPool[n-1] = nil
		m.tblPool = m.tblPool[:n-1]
		clear(out)
	} else {
		out = make(map[event.ID]*netFact, len(tbl))
	}
	for id, nf := range tbl {
		out[id] = nf
	}
	return out
}

// recycle returns a snapshot table to the pool.
func (m *Monitor) recycle(tbl map[event.ID]*netFact) {
	if tbl == nil || len(m.tblPool) >= m.snapBound {
		return
	}
	m.tblPool = append(m.tblPool, tbl)
}

// checkpointTo absorbs every log item with Sync <= g into the checkpoint.
// On the legacy path the items are re-Processed into the checkpoint
// operator (with the same advance policy the live path used, so the two
// stay identical); on the versioned path no operator is driven at all —
// the base moves to the last absorbed item's version and both journals are
// compacted below it. Instead of replaying the remaining suffix to rebuild
// the net-emitted table, it drops the facts the absorbed prefix produced —
// each fact records its source item's Sync — which is equivalent and
// O(table).
func (m *Monitor) checkpointTo(g temporal.Time) {
	cut := m.head
	for cut < len(m.log) && m.log[cut].sync() <= g {
		item := m.log[cut]
		if m.ckpt != nil {
			if item.marker {
				m.ckpt.Advance(item.t)
			} else {
				if item.opt {
					m.ckpt.Advance(item.ev.Sync())
				}
				if !item.probe {
					m.ckpt.Process(item.port, item.ev)
				}
			}
		}
		if item.probe {
			m.probeLog--
		}
		if item.marker {
			m.markerLog--
		}
		cut++
	}
	if cut == m.head {
		return
	}
	last := &m.log[cut-1]
	ls, lq := last.sync(), last.seq
	if m.vop == nil {
		// Snapshots that do not cover the absorbed prefix would need
		// discarded log items to replay; drop them.
		keep := 0
		for keep < len(m.snaps) {
			sn := &m.snaps[keep]
			if sn.bSync < ls || (sn.bSync == ls && sn.bSeq < lq) {
				keep++
				continue
			}
			break
		}
		if keep > 0 {
			for i := 0; i < keep; i++ {
				m.recycle(m.snaps[i].tbl)
			}
			n := copy(m.snaps, m.snaps[keep:])
			clear(m.snaps[n:])
			m.snaps = m.snaps[:n]
		}
	}
	m.head = cut
	m.absSync, m.absSeq = ls, lq
	// The latest retraction is the max over the window: if it fell inside
	// the absorbed prefix, so did every other retraction.
	if keyLE(m.maxRetractSync, m.maxRetractSeq, ls, lq) {
		m.maxRetractSync, m.maxRetractSeq = temporal.MinTime, 0
	}
	// Facts produced by the absorbed prefix are final; forget them. This is
	// exactly the table a replay of the remaining suffix over the new
	// checkpoint would build. (On the versioned path these deletes are not
	// journaled: a rewind filters absorbed entries out as it restores.)
	for id, nf := range m.emitted {
		if keyLE(nf.srcSync, nf.srcSeq, ls, lq) {
			delete(m.emitted, id)
		}
	}
	if m.vop != nil {
		// The boundary item's recorded version and post-item state size are
		// exactly the checkpoint state and what a checkpoint operator would
		// measure after absorbing the prefix.
		m.base, m.fbase = last.ver, last.fpos
		m.ckptState = last.stateAfter
		m.vop.Compact(m.base)
		// Amortized compaction of the net-fact journal below the base.
		if n := m.fbase - m.fjDrop; n > 0 && n >= len(m.fj)-n {
			k := copy(m.fj, m.fj[n:])
			clear(m.fj[k:])
			m.fj = m.fj[:k]
			m.fjDrop = m.fbase
		}
	} else {
		m.ckptState = m.ckpt.StateSize()
	}
	// Amortized compaction of the absorbed prefix.
	if m.head >= compactAt && m.head >= len(m.log)-m.head {
		n := copy(m.log, m.log[m.head:])
		clear(m.log[n:])
		m.log = m.log[:n]
		m.head = 0
	}
}

// trimMemory enforces the M bound: log items older than frontier − M are
// folded into the checkpoint and become unrepairable.
func (m *Monitor) trimMemory() {
	if m.spec.M == Unbounded {
		return
	}
	horizon := m.frontier.Add(-m.spec.M)
	if m.head < len(m.log) && m.log[m.head].sync() < horizon {
		m.checkpointTo(horizon)
	}
}

// emit records freshly produced operator output in the net-emitted table
// and appends the physical items — IDs rewritten with the fact's current
// generation, so that a removed-and-reinserted fact never reuses a physical
// ID (the paper's new-K-chain rule from Figure 2) — to the output buffer.
// (srcSync, srcSeq) is the key of the log item whose processing produced
// the output.
func (m *Monitor) emit(srcSync temporal.Time, srcSeq int, phase byte, outs []event.Event) {
	for _, e := range outs {
		nf, ok := m.emitted[e.ID]
		var gid uint64
		if ok {
			gid = nf.gen
		} else {
			gid = m.gen[e.ID]
		}
		if e.Kind == event.Retract {
			m.met.OutputRetractions++
			if ok {
				if e.V.End <= nf.ev.V.Start {
					m.gen[e.ID] = nf.gen + 1 // retire this generation
					m.putFact(e.ID, nf, true, nil)
				} else {
					shrunk := *nf // copy-on-write: nf may be shared with snapshots
					shrunk.ev.V.End = e.V.End
					m.putFact(e.ID, nf, true, m.newFact(shrunk))
				}
			}
		} else {
			m.met.OutputInserts++
			m.putFact(e.ID, nf, ok, m.newFact(netFact{ev: e, gen: gid, srcSync: srcSync, srcSeq: srcSeq}))
		}
		m.appendTag(phase, e.ID, &e)
		r := e
		r.ID = event.Pair(e.ID, event.ID(gid))
		m.out = append(m.out, r)
	}
}

// foldInto applies operator outputs to a net-fact table without emitting.
// When a replayed output reproduces the live table's entry exactly, the
// existing entry is shared instead of allocating a new one; diff then
// recognizes untouched facts by pointer identity and skips them.
func (m *Monitor) foldInto(tbl map[event.ID]*netFact, srcSync temporal.Time, srcSeq int, outs []event.Event) {
	for _, e := range outs {
		if e.Kind == event.Retract {
			if nf, ok := tbl[e.ID]; ok {
				m.dirty = append(m.dirty, e.ID)
				if e.V.End <= nf.ev.V.Start {
					delete(tbl, e.ID)
				} else {
					shrunk := *nf // copy-on-write: nf may be shared with snapshots
					shrunk.ev.V.End = e.V.End
					tbl[e.ID] = m.newFact(shrunk)
				}
			}
			continue
		}
		if d, ok := m.emitted[e.ID]; ok && d.srcSync == srcSync && d.srcSeq == srcSeq && d.ev.Identical(e) {
			tbl[e.ID] = d
			continue
		}
		m.dirty = append(m.dirty, e.ID)
		tbl[e.ID] = m.newFact(netFact{ev: e, srcSync: srcSync, srcSeq: srcSeq})
	}
}

// diff is the legacy path's compensation: it compares the previously
// emitted net facts against the replayed net facts and appends the
// compensating physical deltas. Only the ids in m.dirty — the candidates
// the repair fold collected — can differ; everything else is inherited or
// re-derived as the identical shared entry.
func (m *Monitor) diff(next map[event.ID]*netFact) {
	ids := append(m.diffIDs[:0], m.dirty...)
	slices.Sort(ids)
	m.diffIDs = ids

	var prev event.ID
	first := true
	for _, id := range ids {
		if !first && id == prev {
			continue // dirty list may hold duplicates
		}
		prev, first = id, false
		old, hadOld := m.emitted[id]
		nw, hasNew := next[id]
		if p := m.compensate(id, old, hadOld, nw, hasNew); p != nil {
			next[id] = p
		}
	}
}

// compensate appends the physical deltas that turn id's previously emitted
// net fact old (hadOld: present) into its replayed fact nw (hasNew:
// present): retractions for a fact that shrank or vanished, a fresh insert
// (under a bumped generation) for one that appeared or changed shape. It
// returns the entry that must replace nw to carry the right generation, or
// nil when nw stands.
func (m *Monitor) compensate(id event.ID, old *netFact, hadOld bool, nw *netFact, hasNew bool) *netFact {
	if !hadOld && !hasNew {
		return nil // touched during the fold but net-absent on both sides
	}
	if hadOld && old == nw {
		// Shared entry: the replay reproduced this fact bit for bit (same
		// generation included); nothing to emit or patch.
		return nil
	}
	switch {
	case hadOld && !hasNew:
		m.retract(id, old, old.ev.V.Start)
		m.gen[id] = old.gen + 1
	case !hadOld && hasNew:
		ng := m.gen[id]
		m.insert(id, nw, ng)
		return m.regen(nw, ng)
	case old.ev.SameFact(nw.ev):
		return m.regen(nw, old.gen)
	case nw.ev.V.Start == old.ev.V.Start && nw.ev.V.End < old.ev.V.End && nw.ev.Payload.Equal(old.ev.Payload):
		m.retract(id, old, nw.ev.V.End)
		return m.regen(nw, old.gen)
	default:
		// Shape changed: remove and reinsert under a new generation.
		m.retract(id, old, old.ev.V.Start)
		ng := old.gen + 1
		m.insert(id, nw, ng)
		m.gen[id] = ng
		return m.regen(nw, ng)
	}
	return nil
}

// regen returns a copy of nf under generation g, or nil when nf already
// carries it.
func (m *Monitor) regen(nf *netFact, g uint64) *netFact {
	if nf.gen == g {
		return nil
	}
	cp := *nf
	cp.gen = g
	return m.newFact(cp)
}

// newFact returns a pointer to a copy of nf. On the versioned path it is
// carved from the monitor's current fact chunk: chunks double from 4
// entries up to factChunk, so a monitor that emits little holds little,
// and one that emits a lot pays one allocation per factChunk facts instead
// of one per fact. A chunk stays reachable while any of its facts does.
// The legacy path allocates each fact alone: its snapshot tables and an
// aggregate's shrink-and-replace churn keep facts alive out of creation
// order, and chunking there raised the live heap of Middle-level count
// aggregates by 12-17% without making them faster.
func (m *Monitor) newFact(nf netFact) *netFact {
	if m.vop == nil {
		p := new(netFact) // not &nf: that would move nf to the heap on every call
		*p = nf
		return p
	}
	if len(m.facts) == cap(m.facts) {
		m.facts = make([]netFact, 0, min(max(2*cap(m.facts), 4), factChunk))
	}
	m.facts = append(m.facts, nf)
	return &m.facts[len(m.facts)-1]
}

// retract appends a compensating retraction cutting old's interval back to
// end.
func (m *Monitor) retract(id event.ID, old *netFact, end temporal.Time) {
	r := old.ev
	r.Kind = event.Retract
	r.V.End = end
	r.ID = event.Pair(id, event.ID(old.gen))
	m.out = append(m.out, r)
	m.appendTag(tagDiff, id, nil)
	m.met.OutputRetractions++
	m.met.Compensations++
}

// insert appends nw's fact as a fresh insertion under generation g.
func (m *Monitor) insert(id event.ID, nw *netFact, g uint64) {
	ins := nw.ev
	ins.ID = event.Pair(id, event.ID(g))
	m.out = append(m.out, ins)
	m.appendTag(tagDiff, id, nil)
	m.met.OutputInserts++
}

// stampOut sets the CEDR time of the buffered output items to the current
// arrival instant and returns the buffer (nil when empty, so callers can
// distinguish "no output" cheaply).
func (m *Monitor) stampOut() []event.Event {
	if len(m.out) == 0 {
		return nil
	}
	for i := range m.out {
		m.out[i].C = temporal.From(m.now)
	}
	return m.out
}

func (m *Monitor) nextSeq() int {
	m.seq++
	return m.seq
}

func (m *Monitor) sampleState() {
	// Snapshot state is a derived cache (bounded by maxSnaps) and is
	// deliberately excluded, keeping the Figure 8 state axis comparable to
	// the reference semantics. Probes are a sibling shard's events seen
	// through a keyhole — the sibling counts them, so this monitor must not.
	cur := (len(m.buffer) - m.probeBuf) + (len(m.log) - m.head - m.probeLog) +
		m.op.StateSize() + m.ckptState
	m.met.CurState = cur
	if cur > m.met.MaxState {
		m.met.MaxState = cur
	}
}

// Finish closes the stream: it releases every buffered event (as if a final
// guarantee covered the whole stream) and advances the operator to
// infinity, flushing blocking operators. The returned items complete the
// output history and are valid until the next call on this monitor.
func (m *Monitor) Finish() []event.Event {
	out, _ := m.finish(nil, nil, nil)
	return out
}

// FinishTagged is Finish for sharded execution (see PushTagged). Both
// returned slices are valid until the next call on this monitor.
func (m *Monitor) FinishTagged(arrival, trigger []byte) ([]event.Event, [][]byte) {
	return m.finish(arrival, trigger, nil)
}

// FinishTaggedInto is FinishTagged appending into a caller-owned Burst
// (see PushTaggedInto).
func (m *Monitor) FinishTaggedInto(arrival, trigger []byte, sink *Burst) {
	m.finish(arrival, trigger, sink)
}

func (m *Monitor) finish(arrival, trigger []byte, sink *Burst) ([]event.Event, [][]byte) {
	m.beginCall(arrival, trigger, sink)
	for _, be := range m.buffer {
		if be.probe {
			m.probeBuf--
		}
		m.admit(classRelease, be.port, be.ev, be.probe, be.ext)
	}
	m.buffer = nil
	if m.tagging {
		m.curClass, m.curSync, m.curArr = classGuarantee, temporal.Infinity, arrival
	}
	m.emit(temporal.Infinity, m.seq, tagAdvance, m.op.Advance(temporal.Infinity))
	m.met.OutputCTIs++
	if m.tagging {
		m.curClass = classCTI
	}
	m.out = append(m.out, event.NewCTI(temporal.Infinity))
	m.appendTag(tagCTI, 0, nil)
	m.sampleState()
	return m.endCall()
}
