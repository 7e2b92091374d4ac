package metrics

import (
	"encoding/json"
	"io"

	"repro/internal/trace"
)

// Timeline builds a Chrome trace-event JSON file (loadable in Perfetto or
// chrome://tracing) from the machine's thread-lifecycle events plus the
// cache-miss spans reported through the Collector. One simulated cycle is
// rendered as one microsecond of trace time.
//
// Track layout: each thread unit owns two tracks — "tuN" carries the
// thread-pipelining stage spans (sequential, tsag, compute, wb-wait,
// write-back, wrong-run) with fork/abort/kill instants, and "tuN mem"
// carries cache-miss spans (demand and wrong-execution).
//
// Timeline implements trace.Tracer: attach it to a machine's Trace fan-out
// (the sta package wires this automatically when a Collector carrying a
// Timeline is attached) and it consumes lifecycle events online; memory
// use is bounded by the emitted span count, capped at MaxEvents.
type Timeline struct {
	// MaxEvents bounds the emitted event count; once reached, further
	// spans are counted in Dropped instead of stored. 0 means the
	// DefaultMaxEvents cap.
	MaxEvents int
	// Dropped counts events discarded after MaxEvents was reached.
	Dropped uint64

	events []TraceEvent
	tus    map[int]*tuTimeline
	maxTU  int
}

// DefaultMaxEvents bounds a Timeline unless MaxEvents overrides it.
// 1<<20 events is roughly a 100 MB JSON file — past any useful viewer load.
const DefaultMaxEvents = 1 << 20

// tuTimeline is the per-thread-unit span state machine.
type tuTimeline struct {
	active     bool
	stage      string
	stageStart uint64
	wrong      bool
	seqOpen    bool
	seqStart   uint64
}

// TraceEvent is one Chrome trace-event object. Fields follow the Trace
// Event Format: ph "X" = complete span (ts+dur), "i" = instant, "M" =
// metadata. Telemetry's span timeline emits the same type, so both files
// load in the same Perfetto UI.
type TraceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   uint64         `json:"ts"`
	Dur  uint64         `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Cat  string         `json:"cat,omitempty"`
	S    string         `json:"s,omitempty"` // instant scope: "t" = thread
	Args map[string]any `json:"args,omitempty"`
}

// NewTimeline returns an empty timeline. TU 0 starts with an open
// "sequential" span at cycle 0: the machine begins sequential execution
// there without emitting a lifecycle event.
func NewTimeline() *Timeline {
	tl := &Timeline{tus: make(map[int]*tuTimeline)}
	tl.tu(0).seqOpen = true
	return tl
}

func (t *Timeline) tu(id int) *tuTimeline {
	s, ok := t.tus[id]
	if !ok {
		s = &tuTimeline{}
		t.tus[id] = s
		if id > t.maxTU {
			t.maxTU = id
		}
	}
	return s
}

// pipeTID and memTID map a thread unit to its two timeline tracks.
func pipeTID(tu int) int { return tu * 2 }
func memTID(tu int) int  { return tu*2 + 1 }

func (t *Timeline) add(e TraceEvent) {
	max := t.MaxEvents
	if max <= 0 {
		max = DefaultMaxEvents
	}
	if len(t.events) >= max {
		t.Dropped++
		return
	}
	t.events = append(t.events, e)
}

func (t *Timeline) span(tid int, name, cat string, start, end uint64) {
	if end <= start {
		return
	}
	t.add(TraceEvent{Name: name, Ph: "X", Ts: start, Dur: end - start, Pid: 0, Tid: tid, Cat: cat})
}

func (t *Timeline) instant(tu int, name string, cycle uint64, args map[string]any) {
	t.add(TraceEvent{Name: name, Ph: "i", Ts: cycle, Pid: 0, Tid: pipeTID(tu), Cat: "lifecycle", S: "t", Args: args})
}

// closeStage emits the in-flight stage span (if any) ending at cycle.
func (s *tuTimeline) closeStage(t *Timeline, tu int, cycle uint64, name string) {
	if !s.active {
		return
	}
	if name == "" {
		name = s.stage
	}
	t.span(pipeTID(tu), name, "stage", s.stageStart, cycle)
	s.active = false
}

func (s *tuTimeline) nextStage(stage string, cycle uint64) {
	s.active = true
	s.stage = stage
	s.stageStart = cycle
}

// Event implements trace.Tracer, consuming one lifecycle event.
func (t *Timeline) Event(e trace.Event) {
	s := t.tu(e.TU)
	switch e.Kind {
	case trace.Begin:
		if s.seqOpen {
			t.span(pipeTID(e.TU), "sequential", "stage", s.seqStart, e.Cycle)
			s.seqOpen = false
		}
		t.instant(e.TU, "begin", e.Cycle, nil)
		// The head thread's body starts here without a ThreadStart event.
		s.closeStage(t, e.TU, e.Cycle, "")
		s.wrong = false
		s.nextStage("tsag", e.Cycle)
	case trace.Fork:
		t.instant(e.TU, "fork", e.Cycle, map[string]any{"target": e.Arg})
	case trace.ThreadStart:
		s.closeStage(t, e.TU, e.Cycle, "")
		s.wrong = false
		s.nextStage("tsag", e.Cycle)
	case trace.Tsagd:
		s.closeStage(t, e.TU, e.Cycle, "tsag")
		s.nextStage("compute", e.Cycle)
	case trace.ThreadEnd:
		s.closeStage(t, e.TU, e.Cycle, "compute")
		s.nextStage("wb-wait", e.Cycle)
	case trace.WBDrain:
		s.closeStage(t, e.TU, e.Cycle, "")
		s.nextStage("write-back", e.Cycle)
	case trace.Retire:
		s.closeStage(t, e.TU, e.Cycle, "write-back")
	case trace.Abort:
		t.instant(e.TU, "abort", e.Cycle, map[string]any{"resume_pc": e.Arg})
		s.closeStage(t, e.TU, e.Cycle, "")
		s.nextStage("wb-wait", e.Cycle)
	case trace.WrongMark:
		t.instant(e.TU, "wrong-mark", e.Cycle, nil)
		s.closeStage(t, e.TU, e.Cycle, "")
		s.wrong = true
		s.nextStage("wrong-run", e.Cycle)
	case trace.Kill:
		name := ""
		if s.wrong {
			name = "wrong-run"
		}
		s.closeStage(t, e.TU, e.Cycle, name)
		s.wrong = false
		t.instant(e.TU, "kill", e.Cycle, nil)
	case trace.SeqResume:
		s.closeStage(t, e.TU, e.Cycle, "write-back")
		t.instant(e.TU, "resume", e.Cycle, map[string]any{"pc": e.Arg})
		s.seqOpen = true
		s.seqStart = e.Cycle
	case trace.Halt:
		t.instant(e.TU, "halt", e.Cycle, nil)
		t.Finish(e.Cycle)
	}
}

// MemSpan records one cache-miss span on the thread unit's memory track,
// labelled with the issuing instruction's PC when known (pc >= 0).
func (t *Timeline) MemSpan(tu int, start, end uint64, wrong bool, pc int) {
	t.tu(tu) // ensure the TU's tracks are named even if no stage event hit it
	name := "miss"
	if wrong {
		name = "wrong-miss"
	}
	if end <= start {
		return
	}
	e := TraceEvent{Name: name, Ph: "X", Ts: start, Dur: end - start, Pid: 0, Tid: memTID(tu), Cat: "mem"}
	if pc >= 0 {
		e.Args = map[string]any{"pc": pc}
	}
	t.add(e)
}

// AttribInstant records an attribution event (pollution, useful promotion)
// as an instant on the thread unit's memory track.
func (t *Timeline) AttribInstant(tu int, name string, cycle uint64, args map[string]any) {
	t.tu(tu)
	t.add(TraceEvent{Name: name, Ph: "i", Ts: cycle, Pid: 0, Tid: memTID(tu), Cat: "attrib", S: "t", Args: args})
}

// Finish closes every open span at the given end cycle (wrong threads can
// still be running when the machine halts), in TU order so the export is
// deterministic.
func (t *Timeline) Finish(cycle uint64) {
	for tu := 0; tu <= t.maxTU; tu++ {
		s, ok := t.tus[tu]
		if !ok {
			continue
		}
		if s.seqOpen {
			t.span(pipeTID(tu), "sequential", "stage", s.seqStart, cycle)
			s.seqOpen = false
		}
		name := ""
		if s.wrong {
			name = "wrong-run"
		}
		s.closeStage(t, tu, cycle, name)
	}
}

// TraceFile is the Chrome trace-event JSON envelope.
type TraceFile struct {
	DisplayTimeUnit string         `json:"displayTimeUnit"`
	TraceEvents     []TraceEvent   `json:"traceEvents"`
	Metadata        map[string]any `json:"metadata,omitempty"`
}

// WriteJSON writes the timeline as Chrome trace-event JSON. Track-name
// metadata is emitted for every thread unit seen, in TU order, followed by
// the recorded events in emission order.
func (t *Timeline) WriteJSON(w io.Writer) error {
	f := TraceFile{DisplayTimeUnit: "ms"}
	f.TraceEvents = append(f.TraceEvents, TraceEvent{
		Name: "process_name", Ph: "M", Pid: 0,
		Args: map[string]any{"name": "sta machine (1 cycle = 1us)"},
	})
	for tu := 0; tu <= t.maxTU; tu++ {
		if _, ok := t.tus[tu]; !ok {
			continue
		}
		f.TraceEvents = append(f.TraceEvents,
			TraceEvent{Name: "thread_name", Ph: "M", Pid: 0, Tid: pipeTID(tu),
				Args: map[string]any{"name": tuLabel(tu, "")}},
			TraceEvent{Name: "thread_name", Ph: "M", Pid: 0, Tid: memTID(tu),
				Args: map[string]any{"name": tuLabel(tu, " mem")}},
		)
	}
	f.TraceEvents = append(f.TraceEvents, t.events...)
	if t.Dropped > 0 {
		f.Metadata = map[string]any{"dropped_events": t.Dropped}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(f)
}

// Events returns the recorded event count (tests).
func (t *Timeline) Events() int { return len(t.events) }

func tuLabel(tu int, suffix string) string {
	const digits = "0123456789"
	if tu < 10 {
		return "tu" + digits[tu:tu+1] + suffix
	}
	return "tu" + digits[tu/10:tu/10+1] + digits[tu%10:tu%10+1] + suffix
}
