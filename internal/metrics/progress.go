// Live progress publication: when a collector carries a ProgressTap, the
// machine's run loop periodically publishes its cycle and commit counters
// into lock-free atomics (read by heartbeat printers and the telemetry
// HTTP server) and snapshots the collector's registry where other
// goroutines may read it. A failed run's history is the collector itself,
// which the telemetry flight dump exports.
package metrics

import (
	"sync"
	"sync/atomic"
	"time"
)

// TapPeriod is the minimum wall-clock spacing of registry bridge
// snapshots. Atomic cycle/commit publication is not throttled; only the
// heavier snapshot is.
const TapPeriod = 250 * time.Millisecond

// ProgressTap receives live progress from one running machine: set it as
// a collector's Tap before Run. The publishing side is the simulation
// goroutine; every reader-facing method is safe to call concurrently with
// the run.
type ProgressTap struct {
	cycle   atomic.Uint64
	commits atomic.Uint64

	mu         sync.Mutex
	started    time.Time
	startCycle uint64
	bridge     []KV
	lastTick   time.Time
}

// Latest returns the most recently published cycle and total commit count.
func (t *ProgressTap) Latest() (cycle, commits uint64) {
	return t.cycle.Load(), t.commits.Load()
}

// Started returns the wall-clock time of the first publication (zero until
// the run's first publish).
func (t *ProgressTap) Started() time.Time {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.started
}

// Counters returns the latest bridged registry snapshot (empty when the
// collector has no registry or no bridge tick has happened yet).
func (t *ProgressTap) Counters() []KV {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]KV, len(t.bridge))
	copy(out, t.bridge)
	return out
}

// Rate is the simulated cycles per wall second since the first
// publication (0 before it).
func (t *ProgressTap) Rate() float64 {
	t.mu.Lock()
	started, from := t.started, t.startCycle
	t.mu.Unlock()
	dt := time.Since(started).Seconds()
	if started.IsZero() || dt <= 0 {
		return 0
	}
	return float64(t.cycle.Load()-from) / dt
}

// Publish records a running machine's progress in the tap: the cycle and
// total commit count on every call and, at most once per TapPeriod or
// whenever force is set, a snapshot of the collector's registry. The
// simulation goroutine calls it; a collector without a tap ignores it.
func (c *Collector) Publish(cycle, commits uint64, force bool) {
	if c == nil || c.Tap == nil {
		return
	}
	t := c.Tap
	t.cycle.Store(cycle)
	t.commits.Store(commits)
	now := time.Now()
	t.mu.Lock()
	if t.started.IsZero() {
		t.started, t.startCycle = now, cycle
	}
	if force || now.Sub(t.lastTick) >= TapPeriod {
		t.lastTick = now
		if c.Registry != nil {
			t.bridge = c.Registry.Snapshot()
		}
	}
	t.mu.Unlock()
}
