package harness

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"sort"
	"strings"

	"repro/internal/chaos"
	"repro/internal/isa"
	"repro/internal/runstore"
	"repro/internal/simerr"
	"repro/internal/sta"
	"repro/internal/telemetry"
)

// SuiteError aggregates every failed cell of a batch that kept going past
// individual failures (the quarantine policy): the healthy cells finished
// and were memoized/journaled, and this error reports the rest.
type SuiteError struct {
	Total    int              // distinct cells the batch attempted
	Failures map[string]error // memo key -> classified failure
	// RunID is the telemetry run identity, when a telemetry.Run was
	// attached — it names the span JSONL and flight dumps describing each
	// failure.
	RunID string
	// Ledger is the results-ledger path, when one was attached — resuming
	// with the same ledger skips every cell that did finish.
	Ledger string
}

// Error summarizes the damage by failure kind; per-cell detail is in
// Failures (render with Detail).
func (e *SuiteError) Error() string {
	kinds := e.Kinds()
	names := make([]string, 0, len(kinds))
	for k := range kinds {
		names = append(names, k.String())
	}
	sort.Strings(names)
	parts := make([]string, 0, len(names))
	for _, n := range names {
		for k, c := range kinds {
			if k.String() == n {
				parts = append(parts, fmt.Sprintf("%d %s", c, n))
			}
		}
	}
	msg := fmt.Sprintf("harness: %d of %d cells failed (%s)",
		len(e.Failures), e.Total, strings.Join(parts, ", "))
	if e.RunID != "" {
		msg += fmt.Sprintf("; telemetry run %s", e.RunID)
	}
	if e.Ledger != "" {
		msg += fmt.Sprintf("; ledger %s (finished cells resume from it)", e.Ledger)
	}
	return msg
}

// Kinds counts the quarantined failures by taxonomy kind.
func (e *SuiteError) Kinds() map[simerr.Kind]int {
	kinds := make(map[simerr.Kind]int)
	for _, err := range e.Failures {
		kinds[simerr.KindOf(err)]++
	}
	return kinds
}

// Detail renders one line per quarantined cell, sorted by key for
// deterministic output.
func (e *SuiteError) Detail() string {
	keys := make([]string, 0, len(e.Failures))
	for k := range e.Failures {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, "  %v\n", e.Failures[k])
	}
	return b.String()
}

// shortKey compresses a memo key into the same 8-hex-digit tag the metrics
// and attribution exports use, so error messages, file names, and ledger
// keys cross-reference.
func shortKey(k string) string {
	h := fnv.New32a()
	h.Write([]byte(k))
	return fmt.Sprintf("%08x", h.Sum32())
}

// quarantine classifies and records a failed cell so later lookups fail
// fast instead of re-running known-bad work, and tags the error with the
// cell identity.
func (r *Runner) quarantine(k, bench string, err error) error {
	e := simerr.Classify("harness.Result", err, simerr.Unknown)
	if e.Bench == "" {
		e.Bench = bench
	}
	if e.Config == "" {
		e.Config = "cfg-" + shortKey(k)
	}
	if e.Run == "" && r.Telemetry != nil {
		e.Run = r.Telemetry.ID
	}
	r.mu.Lock()
	if r.failed == nil {
		r.failed = make(map[string]error)
	}
	r.failed[k] = e
	r.mu.Unlock()
	return e
}

// runSupervised executes one machine run under the supervision policy:
// context cancellation, the per-run wall-clock timeout, and — when chaos
// is enabled — a deterministic fault injector salted with the memo key, so
// worker scheduling order cannot change which cells fault. Panic recovery
// and the forward-progress watchdog live inside RunContext itself.
func (r *Runner) runSupervised(k string, m *sta.Machine, cell *telemetry.Cell) (*sta.Result, error) {
	ctx := r.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	if r.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, r.Timeout)
		defer cancel()
	}
	if r.Chaos.Enabled() {
		m.Chaos = chaos.New(r.Chaos, k)
		if r.Telemetry != nil {
			m.Chaos.Hook = r.Telemetry.NoteFault
		}
	}
	if cell == nil {
		return m.RunContext(ctx)
	}
	// The machine invocation gets its own span under the cell, so the
	// timeline separates build/reference/validation time from simulation.
	sim := r.Telemetry.StartSpan("sim", "RunContext", cell.Span)
	res, err := m.RunContext(ctx)
	var cycles uint64
	if res != nil {
		cycles = res.Stats.Cycles
	} else if se := (*simerr.Error)(nil); errors.As(err, &se) {
		cycles = se.Cycle
	}
	sim.EndAt(cycles, telemetry.OutcomeOf(err), err)
	return res, err
}

// classifyIO wraps a write-path error into the IO kind (nil stays nil).
func classifyIO(op string, err error) error {
	if err == nil {
		return nil
	}
	return simerr.Classify(op, err, simerr.IO)
}

// Prefill seeds the memoization table with previously finished results
// (from OpenLedger or ArchivedResults), so a resumed suite skips every
// finished cell.
func (r *Runner) Prefill(results map[string]*sta.Result) {
	r.mu.Lock()
	for k, res := range results {
		r.results[k] = res
	}
	r.mu.Unlock()
}

// ArchivedResults rebuilds the full deterministic result of every archived
// cell a detailed runner at this scale can reuse, keyed by memo key, for
// Prefill. A manifest qualifies only when it was written at the same scale,
// ran detailed (manifests do not carry sampled estimates), and recorded the
// whole integer register file; Stats, MemCheck and IntRegs then make up the
// entire sta.Result.
func ArchivedResults(st *runstore.Store, scale int) map[string]*sta.Result {
	out := make(map[string]*sta.Result)
	for _, m := range st.All() {
		if m.Scale != scale || m.Sampling != "" || len(m.IntRegs) != isa.NumIntRegs {
			continue
		}
		res := &sta.Result{Stats: m.Stats, MemCheck: m.MemCheck}
		copy(res.IntRegs[:], m.IntRegs)
		out[m.MemoKey] = res
	}
	return out
}
