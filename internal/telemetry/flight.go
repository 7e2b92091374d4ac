package telemetry

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"time"

	"repro/internal/runstore"
	"repro/internal/simerr"
)

// FlightDump is the JSON document written when a cell dies: the failure
// identity and classified cause, the simerr per-TU machine snapshot, and
// the failing cell's collector export. Run and Span key into spans.jsonl
// beside the dump, which holds the run's span history: the cell span
// (outcome equal to Kind) and its sim child end before the dump is written.
type FlightDump struct {
	Run    string           `json:"run"`
	Wrote  time.Time        `json:"wrote"`
	Span   uint64           `json:"span"`
	Bench  string           `json:"bench,omitempty"`
	Config string           `json:"config,omitempty"`
	Seed   uint64           `json:"seed,omitempty"`
	Kind   string           `json:"kind"`
	Error  string           `json:"error"`
	Cycle  uint64           `json:"cycle,omitempty"`
	TUs    []simerr.TUState `json:"tus,omitempty"`
	Stack  string           `json:"stack,omitempty"`
	// Metrics is the cell collector's export at the failure cycle, in the
	// schema of a finished cell's metrics.json: counters, the interval
	// series up to the last boundary, and histograms.
	Metrics json.RawMessage `json:"metrics"`
}

// DumpFlight writes the flight dump for a failed cell under the run's Dir
// and returns the file path. Without a Dir it returns "" and writes
// nothing: the dump's span history lives in the Dir's span journal.
func (r *Run) DumpFlight(c *Cell, cause error) (string, error) {
	if r.cfg.Dir == "" {
		return "", nil
	}
	d := &FlightDump{
		Run:    r.ID,
		Wrote:  time.Now(),
		Span:   c.Span.ID,
		Bench:  c.Span.Bench,
		Config: c.Span.Config,
		Seed:   c.Span.Seed,
		Kind:   simerr.KindOf(cause).String(),
	}
	if cause != nil {
		d.Error = cause.Error()
	}
	var se *simerr.Error
	if errors.As(cause, &se) {
		d.Cycle = se.Cycle
		d.TUs = se.TUs
		d.Stack = string(se.Stack)
	}
	var buf bytes.Buffer
	if err := c.Obs.WriteJSON(&buf, d.Cycle); err != nil {
		return "", fmt.Errorf("telemetry: flight dump: %w", err)
	}
	d.Metrics = buf.Bytes()
	name := fmt.Sprintf("flight-%s-%s-span%d.json", d.Bench, d.Config, d.Span)
	path := filepath.Join(r.cfg.Dir, name)
	err := runstore.WriteArtifact(path, func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", " ")
		return enc.Encode(d)
	})
	if err != nil {
		return "", fmt.Errorf("telemetry: flight dump: %w", err)
	}
	return path, nil
}
