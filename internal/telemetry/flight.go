package telemetry

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/metrics"
	"repro/internal/runstore"
	"repro/internal/simerr"
	"repro/internal/sta"
)

// DefaultFlightSpans bounds the flight recorder's span ring: enough recent
// history to reconstruct what the suite was doing around a failure without
// retaining a multi-hour sweep.
const DefaultFlightSpans = 256

// Recorder is the run's flight recorder: a bounded ring of recently
// completed spans. On a cell failure it is dumped together with the
// failing cell's progress-sample ring and the simerr machine snapshot,
// turning a panic, deadlock, or watchdog trip into a replayable narrative.
type Recorder struct {
	mu      sync.Mutex
	ring    []Span
	head    int
	count   int
	dropped uint64
}

func newRecorder(max int) *Recorder {
	if max <= 0 {
		max = DefaultFlightSpans
	}
	return &Recorder{ring: make([]Span, max)}
}

func (f *Recorder) add(s Span) {
	f.mu.Lock()
	if f.count == len(f.ring) {
		f.dropped++
	}
	f.ring[f.head] = s
	f.head = (f.head + 1) % len(f.ring)
	if f.count < len(f.ring) {
		f.count++
	}
	f.mu.Unlock()
}

// Recent returns the retained spans oldest-first.
func (f *Recorder) Recent() []Span {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]Span, 0, f.count)
	start := f.head - f.count
	for i := 0; i < f.count; i++ {
		j := start + i
		if j < 0 {
			j += len(f.ring)
		}
		out = append(out, f.ring[j])
	}
	return out
}

// Dropped returns how many spans aged out of the ring.
func (f *Recorder) Dropped() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.dropped
}

// FlightDump is the JSON document written when a cell dies: the failure
// identity and classified cause, the simerr per-TU machine snapshot, the
// run's recent span history, and the failing cell's progress samples plus
// bridged counters.
type FlightDump struct {
	Run     string               `json:"run"`
	Wrote   time.Time            `json:"wrote"`
	Span    uint64               `json:"span"`
	Bench   string               `json:"bench,omitempty"`
	Config  string               `json:"config,omitempty"`
	Seed    uint64               `json:"seed,omitempty"`
	Kind    string               `json:"kind"`
	Error   string               `json:"error"`
	Cycle   uint64               `json:"cycle,omitempty"`
	TUs     []simerr.TUState     `json:"tus,omitempty"`
	Stack   string               `json:"stack,omitempty"`
	Spans   []Span               `json:"spans"`
	Samples []sta.ProgressSample `json:"progress,omitempty"`
	// Counters is the failing cell's last bridged metrics-registry
	// snapshot (empty when the cell ran without a collector).
	Counters map[string]uint64 `json:"counters,omitempty"`
	// DroppedSpans counts span history lost to the ring bound.
	DroppedSpans uint64 `json:"dropped_spans,omitempty"`
}

// BuildFlightDump assembles the dump document for a failed cell without
// writing it anywhere (the HTTP server and tests use it directly).
func (r *Run) BuildFlightDump(c *Cell, cause error) *FlightDump {
	d := &FlightDump{
		Run:          r.ID,
		Wrote:        time.Now(),
		Span:         c.Span.ID,
		Bench:        c.Span.Bench,
		Config:       c.Span.Config,
		Seed:         c.Span.Seed,
		Kind:         simerr.KindOf(cause).String(),
		Spans:        r.flight.Recent(),
		DroppedSpans: r.flight.Dropped(),
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
	if c.Tap != nil {
		d.Samples = c.Tap.Samples()
		if kvs := c.Tap.Counters(); len(kvs) > 0 {
			d.Counters = kvMap(kvs)
		}
	}
	return d
}

func kvMap(kvs []metrics.KV) map[string]uint64 {
	m := make(map[string]uint64, len(kvs))
	for _, kv := range kvs {
		m[kv.Key] = kv.Value
	}
	return m
}

// DumpFlight writes the flight-recorder dump for a failed cell under the
// run's Dir and returns the file path. Without a Dir it returns "" and
// writes nothing (the dump is still reachable via BuildFlightDump).
func (r *Run) DumpFlight(c *Cell, cause error) (string, error) {
	if r.cfg.Dir == "" {
		return "", nil
	}
	d := r.BuildFlightDump(c, cause)
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
