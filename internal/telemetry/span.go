package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"time"

	"repro/internal/simerr"
	"repro/internal/trace"
)

// Span is one traced unit of suite work: a whole suite, one cell, or one
// machine invocation. Spans are created through Run.StartSpan /
// Run.StartCell and completed with End; a span with an empty Outcome is
// still in flight.
type Span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Run    string `json:"run"`
	Kind   string `json:"kind"` // suite | cell | sim
	Name   string `json:"name"`
	Bench  string `json:"bench,omitempty"`
	// Config is the short memo-key hash ("cfg-xxxxxxxx") that also names
	// the cell's metrics/attribution exports and ledger entries.
	Config string `json:"config,omitempty"`
	// Seed is the chaos seed when fault injection is active.
	Seed       uint64    `json:"seed,omitempty"`
	Start      time.Time `json:"start"`
	End_       time.Time `json:"end,omitzero"`
	StartCycle uint64    `json:"start_cycle,omitempty"`
	EndCycle   uint64    `json:"end_cycle,omitempty"`
	// Outcome is "" while in flight, then "ok" or a simerr kind name.
	Outcome string `json:"outcome,omitempty"`
	Err     string `json:"err,omitempty"`

	run *Run
}

// StartSpan opens a span under the run. parent may be nil: cells and
// suites parent automatically (cells to the open suite span), other kinds
// to whatever the caller passes.
func (r *Run) StartSpan(kind, name string, parent *Span) *Span {
	r.mu.Lock()
	r.nextSpan++
	s := &Span{
		ID:    r.nextSpan,
		Run:   r.ID,
		Kind:  kind,
		Name:  name,
		Start: time.Now(),
		run:   r,
	}
	if parent != nil {
		s.Parent = parent.ID
	} else if kind == "cell" && r.suite != nil {
		s.Parent = r.suite.ID
	}
	r.live[s.ID] = s
	r.mu.Unlock()
	return s
}

// End completes the span: it leaves the live set and is journaled to the
// span JSONL. Ending twice is a no-op.
func (s *Span) End(outcome string, err error) { s.EndAt(0, outcome, err) }

// EndAt is End plus the final simulated cycle (0 leaves EndCycle alone).
// All mutable span fields are written under the run mutex, so the HTTP
// handlers can copy in-flight spans race-free.
func (s *Span) EndAt(endCycle uint64, outcome string, err error) {
	if s == nil || s.run == nil {
		return
	}
	r := s.run
	r.mu.Lock()
	if s.Outcome != "" {
		r.mu.Unlock()
		return
	}
	if endCycle != 0 {
		s.EndCycle = endCycle
	}
	s.Outcome = outcome
	s.End_ = time.Now()
	if err != nil {
		s.Err = err.Error()
	}
	delete(r.live, s.ID)
	r.mu.Unlock()
	// The span is sealed: no further mutation happens, so the journal
	// write is safe without the lock.
	r.writeSpan(s)
}

// OutcomeOf maps an error to a span outcome: "ok" for nil, the simerr kind
// name otherwise.
func OutcomeOf(err error) string {
	if err == nil {
		return "ok"
	}
	return simerr.KindOf(err).String()
}

// ConvertSpans reads span JSONL (as written to spans.jsonl) and renders a
// Chrome trace-event / Perfetto JSON timeline of one run's spans (a
// directory's journal holds every run made in it): suites on track 0,
// each cell (with its sim child) on the track of its span
// ID, all in wall-clock microseconds relative to the earliest span.
// Conversion stops at the first malformed record, such as the torn tail
// of a killed run. Run.Close is its caller: it renders the closing run's
// spans, so a killed run's spans stay in the journal unrendered. The
// events are internal/trace's trace-event types.
func ConvertSpans(in io.Reader, out io.Writer, run string) error {
	dec := json.NewDecoder(in)
	var spans []Span
	for {
		var s Span
		if dec.Decode(&s) != nil {
			break // end of input, or the torn tail of a live file
		}
		if s.Run == run {
			spans = append(spans, s)
		}
	}
	if len(spans) == 0 {
		return fmt.Errorf("telemetry: no spans to convert")
	}
	epoch := spans[0].Start
	for _, s := range spans {
		if s.Start.Before(epoch) {
			epoch = s.Start
		}
	}
	// Cells own tracks; children (sim) ride on the parent's track.
	track := func(s Span) int {
		switch s.Kind {
		case "suite":
			return 0
		case "cell":
			return int(s.ID)
		default:
			if s.Parent != 0 {
				return int(s.Parent)
			}
			return int(s.ID)
		}
	}
	events := []trace.TraceEvent{{
		Name: "process_name", Ph: "M", Pid: 1,
		Args: map[string]any{"name": "suite telemetry (run " + spans[0].Run + ")"},
	}}
	for _, s := range spans {
		if s.End_.IsZero() {
			continue
		}
		args := map[string]any{"kind": s.Kind, "outcome": s.Outcome, "span": s.ID}
		if s.Bench != "" {
			args["bench"] = s.Bench
		}
		if s.Config != "" {
			args["config"] = s.Config
		}
		if s.EndCycle > 0 {
			args["end_cycle"] = s.EndCycle
		}
		if s.Err != "" {
			args["err"] = s.Err
		}
		events = append(events, trace.TraceEvent{
			Name: s.Name, Ph: "X", Pid: 1, Tid: track(s), Cat: s.Kind,
			Ts:   uint64(s.Start.Sub(epoch).Microseconds()),
			Dur:  uint64(max(1, s.End_.Sub(s.Start).Microseconds())),
			Args: args,
		})
	}
	return json.NewEncoder(out).Encode(trace.TraceFile{DisplayTimeUnit: "ms", TraceEvents: events})
}
