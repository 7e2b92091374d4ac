// Package simerr defines the structured error taxonomy of the run
// supervision layer. Every failure a simulation or an experiment suite can
// hit is classified into a Kind, and the *Error carrying it records enough
// machine state — the cycle, the configuration key, and a per-thread-unit
// pipeline snapshot — to diagnose the failure without rerunning it.
//
// The package sits below every simulator layer (it imports only the
// standard library), so sta, mem, core, and harness can all return its
// errors without import cycles.
package simerr

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"runtime"
	"strings"
)

// Kind classifies a simulation failure.
type Kind uint8

// The failure taxonomy.
const (
	// Unknown is the zero Kind: an error that predates the taxonomy or
	// could not be classified.
	Unknown Kind = iota
	// Panic is a recovered runtime panic inside the simulator.
	Panic
	// Deadlock is the forward-progress watchdog firing: no instruction
	// retired across any thread unit for the watchdog window.
	Deadlock
	// Runaway is the MaxCycles bound: the machine kept making progress but
	// never halted.
	Runaway
	// Timeout is a per-run wall-clock deadline expiring.
	Timeout
	// Canceled is a run interrupted by its context (e.g. SIGINT).
	Canceled
	// BadProgram is a workload that failed to build, parse, or verify
	// against the functional reference.
	BadProgram
	// IO is a filesystem or export failure (ledger, archive, metrics,
	// attribution writes).
	IO
)

var kindNames = [...]string{
	Unknown:    "unknown",
	Panic:      "panic",
	Deadlock:   "deadlock",
	Runaway:    "runaway",
	Timeout:    "timeout",
	Canceled:   "canceled",
	BadProgram: "bad-program",
	IO:         "io",
}

// String returns the kind's stable lower-case name (used in quarantine
// reports and tests).
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// TUState is one thread unit's pipeline state at the moment of failure.
type TUState struct {
	ID      int    `json:"tu"`
	State   string `json:"state"` // idle, run, wb-wait, wb-drain
	Wrong   bool   `json:"wrong,omitempty"`
	Running bool   `json:"running"` // core has a live thread
	Pred    int    `json:"pred"`    // predecessor TU in the thread chain (-1 none)
	Succ    int    `json:"succ"`    // successor TU (-1 none)
	MemBuf  int    `json:"membuf"`  // speculative memory buffer occupancy
	Head    string `json:"head"`    // ROB head / fetch diagnostics from the core
}

func (t TUState) String() string {
	return fmt.Sprintf("tu%d %s pred=%d succ=%d wrong=%v running=%v membuf=%d %s",
		t.ID, t.State, t.Pred, t.Succ, t.Wrong, t.Running, t.MemBuf, t.Head)
}

// Error is a classified simulation failure with its diagnostic context.
type Error struct {
	Kind   Kind
	Op     string    // failing operation, e.g. "sta.Run", "harness.ledger"
	Bench  string    // benchmark short name, when known
	Config string    // configuration key or label, when known
	Run    string    // telemetry run ID, when the failure happened under one
	Span   uint64    // telemetry span ID of the failing cell, when known
	Cycle  uint64    // simulated cycle at failure (0 if not in a run)
	TUs    []TUState // per-thread-unit pipeline snapshot, when available
	Stack  []byte    // goroutine stack for Panic kinds
	Err    error     // wrapped cause (may be nil for self-describing kinds)
}

// Error renders the one-line summary; use DumpState for the full snapshot.
func (e *Error) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %s", e.Op, e.Kind)
	if e.Bench != "" {
		fmt.Fprintf(&b, " [%s", e.Bench)
		if e.Config != "" {
			fmt.Fprintf(&b, " %s", e.Config)
		}
		b.WriteString("]")
	}
	if e.Cycle > 0 {
		fmt.Fprintf(&b, " at cycle %d", e.Cycle)
	}
	if e.Run != "" {
		fmt.Fprintf(&b, " (run %s", e.Run)
		if e.Span != 0 {
			fmt.Fprintf(&b, " span %d", e.Span)
		}
		b.WriteString(")")
	}
	if e.Err != nil {
		fmt.Fprintf(&b, ": %v", e.Err)
	}
	return b.String()
}

// Unwrap exposes the cause to errors.Is/As.
func (e *Error) Unwrap() error { return e.Err }

// DumpState renders the full structured machine dump: the summary line,
// every thread unit's pipeline state, and (for panics) the stack.
func (e *Error) DumpState() string {
	var b strings.Builder
	b.WriteString(e.Error())
	for _, tu := range e.TUs {
		b.WriteString("\n  ")
		b.WriteString(tu.String())
	}
	if len(e.Stack) > 0 {
		b.WriteString("\n")
		b.Write(e.Stack)
	}
	return b.String()
}

// New builds an Error of the given kind wrapping cause (which may be nil).
func New(kind Kind, op string, cause error) *Error {
	return &Error{Kind: kind, Op: op, Err: cause}
}

// Errorf builds an Error with a formatted self-describing cause.
func Errorf(kind Kind, op, format string, args ...any) *Error {
	return &Error{Kind: kind, Op: op, Err: fmt.Errorf(format, args...)}
}

// FromPanic converts a recovered panic value into a Panic-kind Error
// carrying the recovering goroutine's stack. Call directly from the
// deferred recover site so the stack still shows the panicking frames.
func FromPanic(op string, recovered any) *Error {
	err, ok := recovered.(error)
	if !ok {
		err = fmt.Errorf("%v", recovered)
	}
	buf := make([]byte, 64<<10)
	buf = buf[:runtime.Stack(buf, false)]
	return &Error{Kind: Panic, Op: op, Err: err, Stack: buf}
}

// KindOf extracts the Kind from an error chain; Unknown when no *Error is
// present.
func KindOf(err error) Kind {
	var e *Error
	if errors.As(err, &e) {
		return e.Kind
	}
	return Unknown
}

// Classify wraps an arbitrary error into the taxonomy, preserving an
// existing *Error unchanged. Context and filesystem errors map onto
// Timeout/Canceled/IO; everything else becomes the fallback kind.
func Classify(op string, err error, fallback Kind) *Error {
	if err == nil {
		return nil
	}
	var e *Error
	if errors.As(err, &e) {
		return e
	}
	kind := fallback
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		kind = Timeout
	case errors.Is(err, context.Canceled):
		kind = Canceled
	case isIOErr(err):
		kind = IO
	}
	return &Error{Kind: kind, Op: op, Err: err}
}

// isIOErr reports whether err looks like a filesystem failure.
func isIOErr(err error) bool {
	var pe *fs.PathError
	return errors.As(err, &pe)
}
