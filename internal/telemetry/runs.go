package telemetry

import (
	"cmp"
	"encoding/json"
	"io"
	"slices"
	"time"
)

// runsCell is one in-flight cell in the /runs document.
type runsCell struct {
	Span         Span    `json:"span"`
	Cycle        uint64  `json:"cycle"`
	Commits      uint64  `json:"commits"`
	CyclesPerSec float64 `json:"cycles_per_sec"`
	WallSeconds  float64 `json:"wall_seconds"`
}

// runsDoc is the /runs JSON document.
type runsDoc struct {
	Run           string     `json:"run"`
	UptimeSeconds float64    `json:"uptime_seconds"`
	Suite         *Span      `json:"suite,omitempty"`
	Cells         []runsCell `json:"cells"`
	Done          uint64     `json:"done"`
	Failed        uint64     `json:"failed"`
	Ledger        string     `json:"ledger,omitempty"`
	Archive       string     `json:"archive,omitempty"`
}

// WriteRuns writes the /runs document: the run header plus every
// in-flight cell span with its live progress, sorted by span ID, as
// indented JSON.
func (r *Run) WriteRuns(w io.Writer) error {
	// Span fields mutate under r.mu, so every span that goes into the
	// document is copied by value while the lock is held.
	r.mu.Lock()
	doc := runsDoc{
		Run:           r.ID,
		UptimeSeconds: time.Since(r.started).Seconds(),
		Done:          r.cellsDone,
		Failed:        r.cellsFailed,
		Ledger:        r.ledgerPath,
		Archive:       r.archiveRoot,
	}
	if r.suite != nil {
		suite := *r.suite
		doc.Suite = &suite
	}
	cells := make([]*Cell, 0, len(r.cells))
	spans := make([]Span, 0, len(r.cells))
	for _, c := range r.cells {
		cells = append(cells, c)
		spans = append(spans, *c.Span)
	}
	r.mu.Unlock()
	doc.Cells = make([]runsCell, 0, len(cells))
	for i, c := range cells {
		cycle, commits := c.Obs.Tap.Latest()
		rc := runsCell{
			Span:         spans[i],
			Cycle:        cycle,
			Commits:      commits,
			CyclesPerSec: c.Obs.Tap.Rate(),
		}
		if st := c.Obs.Tap.Started(); !st.IsZero() {
			rc.WallSeconds = time.Since(st).Seconds()
		}
		doc.Cells = append(doc.Cells, rc)
	}
	slices.SortFunc(doc.Cells, func(a, b runsCell) int { return cmp.Compare(a.Span.ID, b.Span.ID) })
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(doc)
}
