// Package chaos is a deterministic, seeded fault injector for the run
// supervision layer. Tests (and the CI chaos suite) attach an Injector to
// the simulator's probability points — panics in the sta and core step
// loops, artificial livelocks, slow cycles in the memory hierarchy, and
// transient write failures in the results ledger — to prove the supervisor
// isolates, classifies, quarantines, and resumes correctly.
//
// Determinism contract: every decision is a pure function of (Config.Seed,
// salt, point, draw index). Each simulation derives its own Injector from
// the suite seed and its run key, so worker-pool scheduling order cannot
// change which runs are faulted. With a nil *Injector every probe is an
// untaken nil check, and the machine's behaviour is bit-identical to an
// uninstrumented run.
package chaos

import (
	"fmt"
	"hash/fnv"
	"time"
)

// Point identifies one injection site in the simulator.
type Point uint8

// The injection sites.
const (
	// PointMachineStep injects a panic at the top of sta.Machine.step.
	PointMachineStep Point = iota
	// PointCoreStep injects a panic inside core.Core.Step.
	PointCoreStep
	// PointLivelock freezes every thread unit (no further retirement) so
	// the forward-progress watchdog must fire.
	PointLivelock
	// PointSlowCycle sleeps SlowCycle wall-clock time inside
	// mem.Hierarchy.Tick, so per-run timeouts can trip on a live machine.
	PointSlowCycle
	// PointLedgerWrite fails a results-ledger append with a transient
	// error, exercising the IO retry path.
	PointLedgerWrite
	// PointNetDrop discards an HTTP response on the fleet wire (the request
	// still reaches the server, so side effects happen — the receiver must
	// be idempotent).
	PointNetDrop
	// PointNetDelay stalls an HTTP exchange by NetDelaySleep, creating
	// heartbeat and lease-expiry races.
	PointNetDelay
	// PointNetDup replays an HTTP request a second time before delivering
	// the second response, exercising duplicate-delivery idempotency.
	PointNetDup
	// PointNetTrunc truncates an HTTP response body mid-JSON, so clients
	// must treat parse failures as transient.
	PointNetTrunc
	// PointWorkerKill abruptly kills a fleet worker mid-cell: in-flight
	// simulations are abandoned without a result, leases expire, and the
	// coordinator must reassign.
	PointWorkerKill
	numPoints
)

var pointNames = [numPoints]string{
	PointMachineStep: "machine-step-panic",
	PointCoreStep:    "core-step-panic",
	PointLivelock:    "livelock",
	PointSlowCycle:   "slow-cycle",
	PointLedgerWrite: "ledger-write-fail",
	PointNetDrop:     "net-drop",
	PointNetDelay:    "net-delay",
	PointNetDup:      "net-dup",
	PointNetTrunc:    "net-trunc",
	PointWorkerKill:  "worker-kill",
}

// String names the injection point.
func (p Point) String() string {
	if p < numPoints {
		return pointNames[p]
	}
	return fmt.Sprintf("point(%d)", uint8(p))
}

// Config sets per-point injection probabilities (0 disables a point, 1
// fires on the first draw). The zero value injects nothing.
type Config struct {
	Seed uint64

	// Per-draw probabilities. Step-loop points draw once per simulated
	// cycle (machine) or core step, so probabilities there should be tiny
	// (e.g. 1e-6); ledger probabilities draw once per append.
	MachinePanic float64
	CorePanic    float64
	Livelock     float64
	SlowCycle    float64
	LedgerFail   float64

	// Network fault probabilities, drawn once per HTTP exchange (or, for
	// WorkerKill, once per heartbeat/claim tick). These drive the fleet
	// protocol soak and never touch the simulator itself, so they are
	// excluded from Enabled (see NetEnabled).
	NetDrop    float64
	NetDelay   float64
	NetDup     float64
	NetTrunc   float64
	WorkerKill float64

	// SlowCycleSleep is the wall-clock pause per SlowCycle hit
	// (default 1ms).
	SlowCycleSleep time.Duration
	// NetDelaySleep is the wall-clock stall per NetDelay hit
	// (default 50ms).
	NetDelaySleep time.Duration
}

// Enabled reports whether any simulator-level point can fire (network
// points are deliberately excluded: they change wire behaviour, never
// simulated state).
func (c Config) Enabled() bool {
	return c.MachinePanic > 0 || c.CorePanic > 0 || c.Livelock > 0 ||
		c.SlowCycle > 0 || c.LedgerFail > 0
}

// NetEnabled reports whether any network-level point can fire.
func (c Config) NetEnabled() bool {
	return c.NetDrop > 0 || c.NetDelay > 0 || c.NetDup > 0 ||
		c.NetTrunc > 0 || c.WorkerKill > 0
}

func (c Config) prob(p Point) float64 {
	switch p {
	case PointMachineStep:
		return c.MachinePanic
	case PointCoreStep:
		return c.CorePanic
	case PointLivelock:
		return c.Livelock
	case PointSlowCycle:
		return c.SlowCycle
	case PointLedgerWrite:
		return c.LedgerFail
	case PointNetDrop:
		return c.NetDrop
	case PointNetDelay:
		return c.NetDelay
	case PointNetDup:
		return c.NetDup
	case PointNetTrunc:
		return c.NetTrunc
	case PointWorkerKill:
		return c.WorkerKill
	}
	return 0
}

// Injected is the panic value raised at panic points, so supervisors (and
// tests) can tell injected faults from real simulator bugs.
type Injected struct {
	Point Point
	Salt  string
}

func (i Injected) Error() string {
	return fmt.Sprintf("chaos: injected %s fault (%s)", i.Point, i.Salt)
}

// Injector draws deterministic fault decisions for one simulation run (or
// one ledger). A nil Injector never fires. Not safe for concurrent use:
// attach one injector per machine, like a metrics collector.
type Injector struct {
	// Hook, when non-nil, observes every fault the instant it fires (before
	// the panic is raised / the sleep starts / the error returns), so the
	// telemetry layer can journal injected faults as structured events. It
	// runs on whichever goroutine drew the decision and so must be safe for
	// concurrent use. Forked children inherit the parent's hook.
	Hook func(p Point, salt string)

	cfg  Config
	salt string
	// thresholds[p] compares directly against the raw xorshift draw so the
	// hot-path check is one integer compare.
	thresholds [numPoints]uint64
	states     [numPoints]uint64
	sleep      time.Duration
	netSleep   time.Duration
}

// New derives a run-scoped injector from the suite configuration and a
// salt (typically the harness memoization key), so each (bench, config)
// cell draws an independent, reproducible fault stream.
func New(cfg Config, salt string) *Injector {
	in := &Injector{cfg: cfg, salt: salt, sleep: cfg.SlowCycleSleep, netSleep: cfg.NetDelaySleep}
	if in.sleep <= 0 {
		in.sleep = time.Millisecond
	}
	if in.netSleep <= 0 {
		in.netSleep = 50 * time.Millisecond
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|%d", salt, cfg.Seed)
	base := h.Sum64()
	for p := Point(0); p < numPoints; p++ {
		// splitmix64 over (base, point) gives well-separated streams.
		s := base + (uint64(p)+1)*0x9E3779B97F4A7C15
		s ^= s >> 30
		s *= 0xBF58476D1CE4E5B9
		s ^= s >> 27
		s *= 0x94D049BB133111EB
		s ^= s >> 31
		if s == 0 {
			s = 1
		}
		in.states[p] = s
		prob := cfg.prob(p)
		switch {
		case prob <= 0:
			in.thresholds[p] = 0
		case prob >= 1:
			in.thresholds[p] = ^uint64(0)
		default:
			in.thresholds[p] = uint64(prob * float64(1<<63) * 2)
		}
	}
	return in
}

// Fork derives a child injector whose streams are independent of the
// parent's but still a pure function of (Config.Seed, parent salt, sub).
// The machine gives every thread unit its own forked injector, so a core's
// draws depend only on its own step history. A nil parent forks to nil.
func (in *Injector) Fork(sub string) *Injector {
	if in == nil {
		return nil
	}
	child := New(in.cfg, in.salt+"|"+sub)
	child.Hook = in.Hook
	return child
}

// Hit draws one decision for the point. Nil receivers and zero-probability
// points never fire.
func (in *Injector) Hit(p Point) bool {
	if in == nil || in.thresholds[p] == 0 {
		return false
	}
	s := in.states[p]
	s ^= s << 13
	s ^= s >> 7
	s ^= s << 17
	in.states[p] = s
	hit := s < in.thresholds[p]
	if hit && in.Hook != nil {
		in.Hook(p, in.salt)
	}
	return hit
}

// Panic raises an Injected panic if the point fires this draw.
func (in *Injector) Panic(p Point) {
	if in.Hit(p) {
		panic(Injected{Point: p, Salt: in.salt})
	}
}

// SlowCycle sleeps the configured pause if the slow-cycle point fires.
func (in *Injector) SlowCycle() {
	if in.Hit(PointSlowCycle) {
		time.Sleep(in.sleep)
	}
}

// NetDelaySleep returns the configured per-hit network stall.
func (in *Injector) NetDelaySleep() time.Duration {
	if in == nil {
		return 0
	}
	return in.netSleep
}

// Salt returns the injector's derivation salt ("" for nil).
func (in *Injector) Salt() string {
	if in == nil {
		return ""
	}
	return in.salt
}

// FailWrite returns a transient error if the ledger-write point fires.
func (in *Injector) FailWrite() error {
	if in.Hit(PointLedgerWrite) {
		return Injected{Point: PointLedgerWrite, Salt: in.salt}
	}
	return nil
}
