package harness

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"sort"
	"strings"
	"time"

	"repro/internal/attrib"
	"repro/internal/chaos"
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

// runRemote offers one cell to the Remote executor, tracing the exchange
// as a "remote" span when telemetry is attached (mirroring the "sim" span
// of a local run).
func (r *Runner) runRemote(bench string, cfg sta.Config, cell *telemetry.Cell) (*sta.Result, *attrib.Report, bool, error) {
	ctx := r.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	var sp *telemetry.Span
	if cell != nil && r.Telemetry != nil {
		sp = r.Telemetry.StartSpan("remote", "fleet", cell.Span)
	}
	res, rep, handled, err := r.Remote(ctx, bench, cfg)
	if sp != nil {
		var cycles uint64
		if res != nil {
			cycles = res.Stats.Cycles
		}
		outcome := telemetry.OutcomeOf(err)
		if !handled {
			outcome = "declined"
		}
		sp.EndAt(cycles, outcome, err)
	}
	return res, rep, handled, err
}

// BackoffDelay returns the capped-exponential retry delay for an attempt
// (0-based), scaled by a deterministic jitter factor in [0.75, 1.25) drawn
// from a stream seeded by key — typically the cell's memo key. The same
// (key, attempt, base, max) always yields the same delay, so retry
// schedules are reproducible in tests; distinct keys decorrelate, so a
// thundering herd of failed cells (or fleet lease reassignments, which
// share this function) spreads out instead of retrying in lockstep.
func BackoffDelay(key string, attempt int, base, max time.Duration) time.Duration {
	if base <= 0 {
		base = 5 * time.Millisecond
	}
	if max <= 0 {
		max = 250 * time.Millisecond
	}
	d := base
	for i := 0; i < attempt && d < max; i++ {
		d *= 2
	}
	if d > max {
		d = max
	}
	// splitmix64 over FNV(key) and the attempt number: a pure function,
	// well-decorrelated across both inputs.
	h := fnv.New64a()
	h.Write([]byte(key))
	s := h.Sum64() + (uint64(attempt)+1)*0x9E3779B97F4A7C15
	s ^= s >> 30
	s *= 0xBF58476D1CE4E5B9
	s ^= s >> 27
	s *= 0x94D049BB133111EB
	s ^= s >> 31
	frac := float64(s>>11) / float64(1<<53) // [0, 1)
	return time.Duration(float64(d) * (0.75 + 0.5*frac))
}

// retryIO runs op, retrying IO-kind failures with capped exponential
// backoff under deterministic seeded jitter (see BackoffDelay; key is the
// cell's memo key); any other kind (or exhausted retries) is returned
// as-is. IO failures are the only class the supervisor treats as
// transient. With telemetry attached, each re-attempt is counted, logged,
// and traced as a "retry" span under the cell.
func (r *Runner) retryIO(opName, key string, cell *telemetry.Cell, op func() error) error {
	retries := r.Retries
	if retries == 0 {
		retries = 3
	}
	if retries < 0 {
		retries = 0
	}
	const maxBackoff = 250 * time.Millisecond
	var err error
	for attempt := 0; ; attempt++ {
		var sp *telemetry.Span
		if attempt > 0 && r.Telemetry != nil {
			var parent *telemetry.Span
			if cell != nil {
				parent = cell.Span
			}
			sp = r.Telemetry.StartSpan("retry", fmt.Sprintf("%s retry %d", opName, attempt), parent)
		}
		err = op()
		sp.End(telemetry.OutcomeOf(err), err)
		if err == nil || attempt >= retries || simerr.KindOf(err) != simerr.IO {
			return err
		}
		if r.Telemetry != nil {
			r.Telemetry.NoteRetry(opName, attempt+1, err)
		}
		time.Sleep(BackoffDelay(key+"|"+opName, attempt, r.RetryBackoff, maxBackoff))
	}
}

// classifyIO wraps a write-path error into the IO kind (nil stays nil).
func classifyIO(op string, err error) error {
	if err == nil {
		return nil
	}
	return simerr.Classify(op, err, simerr.IO)
}

// Prefill seeds the memoization table with previously-journaled results
// (see OpenLedger), so a resumed suite skips every finished cell.
func (r *Runner) Prefill(results map[string]*sta.Result) {
	r.mu.Lock()
	for k, res := range results {
		r.results[k] = res
	}
	r.mu.Unlock()
}
