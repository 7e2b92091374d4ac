// Live progress publication: when a collector carries a ProgressTap, the
// machine's run loop periodically publishes its cycle and commit counters
// into lock-free atomics (read by heartbeat printers and the telemetry
// HTTP server), keeps a bounded ring of throttled progress samples (dumped
// by the flight recorder when the run dies), and snapshots the collector's
// registry where other goroutines may read it.
package metrics

import (
	"sync"
	"sync/atomic"
	"time"
)

// ProgressSample is one throttled observation of a running machine.
type ProgressSample struct {
	Wall    time.Time `json:"wall"`
	Cycle   uint64    `json:"cycle"`
	Commits uint64    `json:"commits"`
	// PerTU is the per-thread-unit committed-instruction count at the
	// sample, indexed by TU id.
	PerTU []uint64 `json:"per_tu,omitempty"`
}

// TapRing bounds a ProgressTap's sample ring: enough history to
// reconstruct the last ~30 seconds of a run at TapPeriod.
const TapRing = 128

// TapPeriod is the minimum wall-clock spacing of ring samples (and
// registry bridge snapshots). Atomic cycle/commit publication is not
// throttled; only the heavier ring/bridge work is.
const TapPeriod = 250 * time.Millisecond

// ProgressTap receives live progress from one running machine: set it as
// a collector's Tap before Run. The publishing side is the simulation
// goroutine; every reader-facing method is safe to call concurrently with
// the run.
type ProgressTap struct {
	cycle   atomic.Uint64
	commits atomic.Uint64

	mu       sync.Mutex
	started  time.Time
	ring     []ProgressSample
	head     int // next write position
	count    int
	bridge   []KV
	lastTick time.Time
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

// Samples returns the ring's contents oldest-first.
func (t *ProgressTap) Samples() []ProgressSample {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]ProgressSample, 0, t.count)
	start := t.head - t.count
	for i := 0; i < t.count; i++ {
		j := start + i
		if j < 0 {
			j += len(t.ring)
		}
		out = append(out, t.ring[j])
	}
	return out
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

// Rate estimates simulated cycles per wall second from the sample ring:
// the span between the oldest and newest retained samples. A young run
// (fewer than two throttled samples) falls back to the average since the
// first publication.
func (t *ProgressTap) Rate() float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.count >= 2 {
		newest := t.at(t.count - 1)
		oldest := t.at(0)
		if dt := newest.Wall.Sub(oldest.Wall).Seconds(); dt > 0 {
			return float64(newest.Cycle-oldest.Cycle) / dt
		}
	}
	if !t.started.IsZero() {
		if dt := time.Since(t.started).Seconds(); dt > 0 {
			return float64(t.cycle.Load()) / dt
		}
	}
	return 0
}

// at returns the i-th retained sample (0 = oldest). Caller holds mu.
func (t *ProgressTap) at(i int) ProgressSample {
	j := t.head - t.count + i
	if j < 0 {
		j += len(t.ring)
	}
	return t.ring[j]
}

func (t *ProgressTap) push(s ProgressSample) {
	if t.ring == nil {
		t.ring = make([]ProgressSample, TapRing)
	}
	t.ring[t.head] = s
	t.head = (t.head + 1) % len(t.ring)
	if t.count < len(t.ring) {
		t.count++
	}
}

// Publish records a running machine's progress in the tap: the cycle and
// total commit count on every call and, at most once per TapPeriod or
// whenever force is set, a ring sample carrying a copy of perTU (commits
// per thread unit) plus a snapshot of the collector's registry. The
// simulation goroutine calls it; a collector without a tap ignores it.
func (c *Collector) Publish(cycle, commits uint64, perTU []uint64, force bool) {
	if c == nil || c.Tap == nil {
		return
	}
	t := c.Tap
	t.cycle.Store(cycle)
	t.commits.Store(commits)
	now := time.Now()
	t.mu.Lock()
	if t.started.IsZero() {
		t.started = now
	}
	if force || now.Sub(t.lastTick) >= TapPeriod {
		t.lastTick = now
		per := append([]uint64(nil), perTU...)
		t.push(ProgressSample{Wall: now, Cycle: cycle, Commits: commits, PerTU: per})
		if c.Registry != nil {
			t.bridge = c.Registry.Snapshot()
		}
	}
	t.mu.Unlock()
}
