// Live progress publication: when a ProgressTap is attached to a Machine,
// the run loop periodically publishes its cycle and commit counters into
// lock-free atomics (read by heartbeat printers and the telemetry HTTP
// server), keeps a bounded ring of throttled progress samples (dumped by
// the flight recorder when the run dies), and bridges the metrics registry
// into a snapshot other goroutines may read. With a nil tap the whole
// mechanism is one untaken nil check per loop iteration.
package sta

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
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

// ProgressTap receives live progress from one running machine. Attach to
// Machine.Tap before Run. The publishing side is the simulation goroutine;
// every reader-facing method is safe to call concurrently with the run.
type ProgressTap struct {
	cycle   atomic.Uint64
	commits atomic.Uint64

	mu       sync.Mutex
	started  time.Time
	ring     []ProgressSample
	head     int // next write position
	count    int
	bridge   []metrics.KV
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

// Counters returns the latest bridged metrics-registry snapshot (nil when
// the machine has no collector or no bridge tick has happened yet).
func (t *ProgressTap) Counters() []metrics.KV {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]metrics.KV, len(t.bridge))
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

// publishProgress pushes the machine's progress into the attached tap.
// Called from the run loop every 1024 iterations (and from the failure
// paths with force=true so the flight recorder sees the dying state).
// Only the simulation goroutine touches simulator state, so the reads below
// are race-free; readers only ever see the atomics and the mutex-guarded
// copies.
func (m *Machine) publishProgress(force bool) {
	t := m.Tap
	if t == nil {
		return
	}
	var commits uint64
	for i := range m.tus {
		commits += m.tus[i].core.Stats.Commits
	}
	t.cycle.Store(m.cycle)
	t.commits.Store(commits)
	now := time.Now()
	t.mu.Lock()
	if t.started.IsZero() {
		t.started = now
	}
	if force || now.Sub(t.lastTick) >= TapPeriod {
		t.lastTick = now
		per := make([]uint64, len(m.tus))
		for i := range m.tus {
			per[i] = m.tus[i].core.Stats.Commits
		}
		t.push(ProgressSample{Wall: now, Cycle: m.cycle, Commits: commits, PerTU: per})
		if m.Metrics != nil && m.Metrics.Registry != nil {
			t.bridge = m.Metrics.Registry.Snapshot()
		}
	}
	t.mu.Unlock()
}
