// Package telemetry is the run-scoped observability layer that sits above
// the per-cycle metrics and trace packages: one Run spans a whole harness
// invocation (a suite of experiments, or a single stasim simulation) and
// gives it a live control plane while it executes.
//
// A Run owns four things:
//
//   - span tracing: every suite, cell, and machine invocation opens a
//     Span (run ID, config memo key, seed, start/end cycle, outcome from
//     the simerr taxonomy); completed spans stream to spans.jsonl and, on
//     Close, the run's spans are rendered as a Chrome trace-event/Perfetto
//     timeline (spans.trace.json) that loads beside the cycle-level
//     timeline from internal/trace.
//   - an HTTP introspection server (opt-in): /metrics in Prometheus text
//     format (suite gauges plus each live cell's bridged metrics
//     registry), /runs as live JSON of in-flight spans, /healthz, and the
//     standard pprof handlers.
//   - flight dumps: whenever a cell panics, deadlocks, or trips the
//     watchdog, a JSON dump beside the span journal records the failure,
//     the per-TU machine snapshot and the cell collector's metrics export;
//     its run and span IDs key into the journal for the history.
//   - structured logging: a slog.Logger with the run ID attached, threaded
//     through the harness, supervision, ledger, and chaos paths.
//
// The simulator never imports this package; it publishes through the
// metrics.ProgressTap of its collector (a Cell's Obs), which costs one
// untaken nil check per run-loop iteration when detached. Everything
// here is safe for concurrent use: the
// publishing side is the harness worker pool, the reading side the HTTP
// server.
package telemetry

import (
	"bytes"
	"crypto/rand"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/chaos"
	"repro/internal/journal"
	"repro/internal/metrics"
	"repro/internal/simerr"
)

// Config configures a telemetry Run.
type Config struct {
	// Addr is the HTTP introspection listen address ("" disables the
	// server). Use "127.0.0.1:0" to pick a free port; Run.Addr reports it.
	Addr string
	// Dir receives the span JSONL (spans.jsonl), its rendered trace
	// (spans.trace.json) and flight dumps ("" disables the files).
	Dir string
	// Log is the base logger; nil installs a text handler on stderr at
	// Info level. The Run's logger carries the run ID on every record.
	Log *slog.Logger
}

// Run is one telemetry-scoped harness invocation.
type Run struct {
	// ID is the unique run identifier, stamped on every span, log record,
	// flight dump, and failure message.
	ID string
	// Log carries the run ID on every record.
	Log *slog.Logger

	cfg     Config
	started time.Time

	mu       sync.Mutex
	nextSpan uint64
	live     map[uint64]*Span
	cells    map[uint64]*Cell
	suite    *Span
	seq      int // cells completed (success or failure), for progress logs

	cellsDone   uint64
	cellsFailed uint64
	faults      uint64

	ledgerPath  string
	archiveRoot string

	spans     *journal.Journal // spans.jsonl; nil without a Dir
	spansFrom int64            // journal size at Start: this run's spans follow

	server *httpServer

	stopProfile func() error // set by StartProfile; Close calls it
}

// NewRunID returns a unique, sortable run identifier: UTC timestamp plus
// random tail.
func NewRunID() string {
	var b [4]byte
	if _, err := rand.Read(b[:]); err != nil {
		binary.LittleEndian.PutUint32(b[:], uint32(time.Now().UnixNano()))
	}
	return time.Now().UTC().Format("20060102-150405") + fmt.Sprintf("-%08x", binary.BigEndian.Uint32(b[:]))
}

// Start opens a telemetry run: allocates the run ID, opens the span JSONL
// (when Dir is set), and starts the HTTP server (when Addr is set). Close
// the run when the suite finishes.
func Start(cfg Config) (*Run, error) {
	base := cfg.Log
	if base == nil {
		base = slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: slog.LevelInfo}))
	}
	r := &Run{
		ID:      NewRunID(),
		cfg:     cfg,
		started: time.Now(),
		live:    make(map[uint64]*Span),
		cells:   make(map[uint64]*Cell),
	}
	r.Log = base.With("run", r.ID)
	if cfg.Dir != "" {
		if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
			return nil, fmt.Errorf("telemetry: %w", err)
		}
		// A run killed mid-append leaves a torn line, possibly with a
		// later span glued onto it. The journal cuts from the first line
		// that is not valid JSON, so this run's spans start on a line of
		// their own.
		path := filepath.Join(cfg.Dir, "spans.jsonl")
		j, err := journal.Open(path, journal.Format{Entry: json.Valid})
		if err != nil {
			return nil, fmt.Errorf("telemetry: %w", err)
		}
		r.spans = j
		if fi, err := os.Stat(path); err == nil {
			r.spansFrom = fi.Size() // else Close reads the whole journal
		}
	}
	if cfg.Addr != "" {
		srv, err := newHTTPServer(r, cfg.Addr)
		if err != nil {
			if r.spans != nil {
				r.spans.Close()
			}
			return nil, err
		}
		r.server = srv
		r.Log.Info("telemetry server listening", "addr", srv.addr())
	}
	return r, nil
}

// Addr returns the HTTP server's actual listen address ("" when disabled).
func (r *Run) Addr() string {
	if r.server == nil {
		return ""
	}
	return r.server.addr()
}

// Dir returns the telemetry output directory ("" when disabled).
func (r *Run) Dir() string { return r.cfg.Dir }

// Close ends the run: any still-open suite span is closed, the profile
// begun by StartProfile written, the span file flushed and rendered as a
// Perfetto trace (spans.trace.json) beside it, and the HTTP server shut
// down. A run that never reaches Close (killed, or crashed outside cell
// supervision) leaves its spans in spans.jsonl unrendered.
func (r *Run) Close() error {
	r.mu.Lock()
	suite := r.suite
	r.mu.Unlock()
	if suite != nil {
		suite.End("canceled", nil)
	}
	var err error
	if stop := r.stopProfile; stop != nil {
		r.stopProfile = nil
		err = stop()
	}
	if r.spans != nil {
		if cerr := r.spans.Close(); err == nil {
			err = cerr
		}
		if err == nil {
			err = r.renderSpans()
		}
	}
	if r.server != nil {
		r.server.close()
	}
	return err
}

// renderSpans converts the spans this run appended to the closed journal
// (the bytes after spansFrom, so a reused directory's history is neither
// read nor able to stop the conversion) to spans.trace.json, which loads
// in the same UI as a simulation's cycle-level timeline. A run with no
// spans renders nothing.
func (r *Run) renderSpans() error {
	f, err := os.Open(filepath.Join(r.cfg.Dir, "spans.jsonl"))
	if err != nil {
		return fmt.Errorf("telemetry: %w", err)
	}
	defer f.Close()
	if _, err := f.Seek(r.spansFrom, io.SeekStart); err != nil {
		return fmt.Errorf("telemetry: %w", err)
	}
	var out bytes.Buffer
	if ConvertSpans(f, &out, r.ID) != nil {
		return nil
	}
	if err := os.WriteFile(filepath.Join(r.cfg.Dir, "spans.trace.json"), out.Bytes(), 0o644); err != nil {
		return fmt.Errorf("telemetry: %w", err)
	}
	return nil
}

// SetLedger records the results-ledger path so /runs can reference it.
func (r *Run) SetLedger(path string) {
	r.mu.Lock()
	r.ledgerPath = path
	r.mu.Unlock()
}

// SetArchive records the run-archive root so /runs can point readers at
// the archived manifests.
func (r *Run) SetArchive(root string) {
	r.mu.Lock()
	r.archiveRoot = root
	r.mu.Unlock()
}

// NoteFault records one injected chaos fault. Safe from any goroutine (the
// chaos hook fires on simulation workers).
func (r *Run) NoteFault(p chaos.Point, salt string) {
	r.mu.Lock()
	r.faults++
	r.mu.Unlock()
	r.Log.Warn("chaos fault injected", "point", p.String(), "salt", salt)
}

// Counts returns the completed/failed cell counters (tests, /runs).
func (r *Run) Counts() (done, failed uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.cellsDone, r.cellsFailed
}

// Cell is one in-flight simulation under the run: its span plus the
// collector its machine runs with.
type Cell struct {
	Span *Span
	// Obs is the machine's collector. Its Tap carries live cycle/commit
	// progress to the HTTP server; on failure the flight dump exports it.
	Obs *metrics.Collector

	run *Run
}

// StartCell opens a cell span (parented to the current suite span, if any)
// for a machine that runs with obs, giving obs a progress tap when it has
// none (nil obs gets an empty collector). bench and config label the cell;
// seed is the chaos seed when fault injection is active (0 otherwise).
func (r *Run) StartCell(bench, config string, seed uint64, obs *metrics.Collector) *Cell {
	if obs == nil {
		obs = &metrics.Collector{}
	}
	if obs.Tap == nil {
		obs.Tap = &metrics.ProgressTap{}
	}
	s := r.StartSpan("cell", bench+"/"+config, nil)
	s.Bench = bench
	s.Config = config
	s.Seed = seed
	c := &Cell{Span: s, Obs: obs, run: r}
	r.mu.Lock()
	r.cells[s.ID] = c
	r.mu.Unlock()
	r.Log.Debug("cell start", "span", s.ID, "bench", bench, "config", config)
	return c
}

// Done completes the cell successfully at the given final cycle.
func (c *Cell) Done(cycles uint64) {
	c.close(cycles, "ok", nil)
	r := c.run
	r.mu.Lock()
	r.cellsDone++
	seq := r.seq + 1
	r.seq = seq
	r.mu.Unlock()
	r.Log.Info("cell done",
		"seq", seq, "span", c.Span.ID, "bench", c.Span.Bench,
		"config", c.Span.Config, "cycles", cycles)
}

// Fail completes the cell with the simerr-classified outcome, stamps the
// run/span identity onto the error when it is a *simerr.Error, and writes
// the flight dump after the cell span is journaled. It returns the dump
// path ("" when no Dir is set).
func (c *Cell) Fail(err error) string {
	kind := simerr.KindOf(err)
	var cycle uint64
	var se *simerr.Error
	if errors.As(err, &se) {
		se.Run = c.run.ID
		se.Span = c.Span.ID
		cycle = se.Cycle
	}
	c.close(cycle, kind.String(), err)
	r := c.run
	r.mu.Lock()
	r.cellsFailed++
	seq := r.seq + 1
	r.seq = seq
	r.mu.Unlock()
	path, derr := r.DumpFlight(c, err)
	if derr != nil {
		r.Log.Error("flight dump failed", "err", derr)
	}
	r.Log.Error("cell failed",
		"seq", seq, "span", c.Span.ID, "bench", c.Span.Bench,
		"config", c.Span.Config, "kind", kind.String(), "err", err, "flight", path)
	return path
}

// close ends the cell span and drops it from the live set.
func (c *Cell) close(endCycle uint64, outcome string, err error) {
	r := c.run
	r.mu.Lock()
	delete(r.cells, c.Span.ID)
	r.mu.Unlock()
	c.Span.EndAt(endCycle, outcome, err)
}

// BeginSuite opens a suite-level span; cells started while it is open are
// parented to it. The previous suite span, if still open, is closed first.
func (r *Run) BeginSuite(name string) *Span {
	r.mu.Lock()
	prev := r.suite
	r.mu.Unlock()
	if prev != nil {
		prev.End("ok", nil)
	}
	s := r.StartSpan("suite", name, nil)
	r.mu.Lock()
	r.suite = s
	r.mu.Unlock()
	r.Log.Info("suite start", "suite", name, "span", s.ID)
	return s
}

// EndSuite closes the current suite span with the given outcome.
func (r *Run) EndSuite(outcome string, err error) {
	r.mu.Lock()
	s := r.suite
	r.suite = nil
	r.mu.Unlock()
	if s != nil {
		s.End(outcome, err)
	}
}

// liveCells snapshots the in-flight cells, sorted by span ID.
func (r *Run) liveCells() []*Cell {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*Cell, 0, len(r.cells))
	for _, c := range r.cells {
		out = append(out, c)
	}
	sortCells(out)
	return out
}

func sortCells(cs []*Cell) {
	for i := 1; i < len(cs); i++ {
		for j := i; j > 0 && cs[j].Span.ID < cs[j-1].Span.ID; j-- {
			cs[j], cs[j-1] = cs[j-1], cs[j]
		}
	}
}

// writeSpan appends one completed span to the JSONL file (no-op without a
// Dir, or once the run is closed). The journal serializes appends, so
// concurrent cell completions cannot tear lines.
func (r *Run) writeSpan(s *Span) {
	if r.spans == nil {
		return
	}
	line, err := json.Marshal(s)
	if err != nil {
		return
	}
	if err := r.spans.Append(line); err != nil && !errors.Is(err, os.ErrClosed) {
		r.Log.Error("span journal write failed", "err", err)
	}
}
