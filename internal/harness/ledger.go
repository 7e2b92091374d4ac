package harness

import (
	"encoding/json"
	"fmt"
	"sync"

	"repro/internal/chaos"
	"repro/internal/journal"
	"repro/internal/simerr"
	"repro/internal/sta"
)

// ledgerVersion is bumped whenever the on-disk entry format changes.
const ledgerVersion = 1

// ledgerHeader is the first line of a ledger file. The scale is recorded so
// a resume cannot silently mix results from differently-sized workloads.
type ledgerHeader struct {
	V     int `json:"v"`
	Scale int `json:"scale"`
}

// ledgerEntry is one completed simulation: the memoization key and its
// full result. stats.Sim and the architectural registers are integers, so
// the entry round-trips bit-identically through JSON.
type ledgerEntry struct {
	Key    string      `json:"key"`
	Result *sta.Result `json:"result"`
}

// Ledger journals completed simulation results to disk as JSON lines so an
// interrupted suite can resume without re-simulating finished cells. The
// first line is a header; each later line is one entry, flushed to the
// file as it completes, so a killed process loses at most the entry being
// written. A torn final line is detected and dropped on the next open
// (internal/journal owns that discipline).
//
// Appends are serialized internally; one Ledger may back a whole worker
// pool.
type Ledger struct {
	mu    sync.Mutex // guards the chaos draw
	j     *journal.Journal
	path  string
	chaos *chaos.Injector
}

// OpenLedger opens (creating if needed) the ledger at path and returns it
// together with every intact entry already journaled there. A truncated
// trailing line — the signature of a run killed mid-append — is discarded
// and the file truncated back to the last good entry. Opening a ledger
// written at a different version or workload scale is an error rather than
// a silent mix of incompatible results.
func OpenLedger(path string, scale int) (*Ledger, map[string]*sta.Result, error) {
	hdr, _ := json.Marshal(ledgerHeader{V: ledgerVersion, Scale: scale})
	prior := make(map[string]*sta.Result)
	var bad error // a refused header is not an I/O failure: returned unclassified
	j, err := journal.Open(path, journal.Format{
		Header: hdr,
		Check: func(line []byte) error {
			var h ledgerHeader
			if err := json.Unmarshal(line, &h); err != nil {
				bad = fmt.Errorf("harness: ledger %s: corrupt header (delete the file to start over): %w", path, err)
			} else if h.V != ledgerVersion || h.Scale != scale {
				bad = fmt.Errorf("harness: ledger %s was written at v%d scale %d, want v%d scale %d (match -scale or delete the file)",
					path, h.V, h.Scale, ledgerVersion, scale)
			}
			return bad
		},
		Entry: func(line []byte) bool {
			var e ledgerEntry
			if err := json.Unmarshal(line, &e); err != nil || e.Result == nil {
				return false
			}
			prior[e.Key] = e.Result
			return true
		},
	})
	if bad != nil {
		return nil, nil, bad
	}
	if err != nil {
		return nil, nil, simerr.Classify("harness.ledger", err, simerr.IO)
	}
	return &Ledger{j: j, path: path}, prior, nil
}

// SetChaos attaches (or with nil detaches) a fault injector whose
// ledger-write point makes Append fail transiently.
func (l *Ledger) SetChaos(in *chaos.Injector) { l.chaos = in }

// Path returns the ledger's file path.
func (l *Ledger) Path() string { return l.path }

// Append journals one completed result. Failures are IO-kind (and so
// retried by the Runner's IO retry policy).
func (l *Ledger) Append(key string, res *sta.Result) error {
	l.mu.Lock()
	err := l.chaos.FailWrite()
	l.mu.Unlock()
	if err != nil {
		return simerr.Classify("harness.ledger", err, simerr.IO)
	}
	line, err := json.Marshal(ledgerEntry{Key: key, Result: res})
	if err != nil {
		return simerr.Classify("harness.ledger", err, simerr.IO)
	}
	if err := l.j.Append(line); err != nil {
		return simerr.Classify("harness.ledger", err, simerr.IO)
	}
	return nil
}

// Close flushes and closes the underlying file.
func (l *Ledger) Close() error {
	if err := l.j.Close(); err != nil {
		return simerr.Classify("harness.ledger", err, simerr.IO)
	}
	return nil
}
