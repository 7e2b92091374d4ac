package sta

import (
	"context"
	"fmt"
	"math/bits"

	"repro/internal/asm"
	"repro/internal/attrib"
	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/interp"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/memimg"
	"repro/internal/metrics"
	"repro/internal/sample"
	"repro/internal/simerr"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Config describes a whole superthreaded machine.
type Config struct {
	NumTUs int
	Core   core.Config
	Mem    mem.Config

	// ForkDelay is the fixed cost of initiating a thread (§4.1: 4 cycles);
	// TransferPerValue is the additional cost per forwarded register.
	ForkDelay        int
	TransferPerValue int

	// MemBufEntries sizes the speculative memory buffer (§4.1: 128).
	MemBufEntries int

	// WrongThreadExec marks aborted successors wrong instead of killing
	// them (wth configurations).
	WrongThreadExec bool

	// MaxCycles bounds a run; exceeded means deadlock or runaway.
	MaxCycles uint64

	// WatchdogCycles is the forward-progress watchdog window: if no
	// instruction retires across any thread unit (and no thread starts or
	// drains a store) for this many consecutive cycles, the run fails fast
	// with a simerr.Deadlock carrying a full per-TU state dump — far
	// earlier and far more diagnosable than the MaxCycles bound. 0 means
	// DefaultWatchdogCycles.
	WatchdogCycles uint64
}

// DefaultWatchdogCycles is the default forward-progress window. The
// longest legitimate retirement gaps in this machine are a few hundred
// cycles (DRAM round trips, fork transfers, write-back drains), so a
// million-cycle window leaves three orders of magnitude of slack while
// still firing 500x earlier than the default MaxCycles bound.
const DefaultWatchdogCycles = 1_000_000

// DefaultConfig returns the §5.2 default machine: eight 8-issue thread
// units with 8 KB direct-mapped L1 data caches.
func DefaultConfig() Config {
	return Config{
		NumTUs:           8,
		Core:             core.DefaultConfig(),
		Mem:              mem.DefaultConfig(),
		ForkDelay:        4,
		TransferPerValue: 2,
		MemBufEntries:    128,
		MaxCycles:        500_000_000,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.NumTUs <= 0 || c.NumTUs > 63 {
		return fmt.Errorf("sta: NumTUs %d out of range [1,63]", c.NumTUs)
	}
	if c.ForkDelay < 0 || c.TransferPerValue < 0 {
		return fmt.Errorf("sta: negative fork costs")
	}
	if c.MemBufEntries <= 0 {
		return fmt.Errorf("sta: memory buffer must have entries")
	}
	if err := c.Core.Validate(); err != nil {
		return err
	}
	return c.Mem.Validate()
}

// tuState is a thread unit's lifecycle state.
type tuState uint8

const (
	tuIdle    tuState = iota
	tuRun             // core executing (sequential or thread body)
	tuWBWait          // body finished; waiting to become the oldest thread
	tuWBDrain         // draining the memory buffer to the caches
)

// pendingFork is a committed FORK waiting for its target TU and delay.
type pendingFork struct {
	fromTU    int
	target    int
	mask      int64
	regs      [isa.NumIntRegs]int64
	parentGen uint64 // thread identity of the forking thread
	startAt   uint64 // 0 = not yet scheduled (target TU busy)
}

// Result summarizes one complete program run on the machine.
type Result struct {
	Stats    stats.Sim
	MemCheck uint64
	IntRegs  [isa.NumIntRegs]int64 // architectural registers of the halting TU
}

// Machine is one superthreaded processor executing one program.
type Machine struct {
	// Trace, when non-nil, receives thread-lifecycle events.
	Trace trace.Tracer

	// Metrics, when non-nil, receives cycle-level observability data:
	// counters, interval series, latency histograms, and (when its
	// Timeline is set) a Perfetto-loadable cycle timeline. Attach before
	// Run; a nil collector costs nothing on the simulation's hot paths.
	Metrics *metrics.Collector

	// Attrib, when non-nil, receives fill-provenance and pollution events
	// from every data unit: the prefetch-effectiveness attribution layer.
	// Attach before Run; read results with Attrib.Report after. When
	// Metrics is also attached, the attribution counters register in its
	// registry and pollution/promotion instants go to its timeline. A
	// sampled run (Sample enabled) sets Attrib to nil when it starts:
	// fast-forwarding skips fills the report accounts for, so the report
	// could not reconcile.
	Attrib *attrib.Collector

	// DisableSkip forces the machine to step every thread unit every
	// cycle, instead of fast-forwarding over provably idle spans and
	// letting each idle or blocked TU sleep until its own wake cycle.
	// Results are identical either way (the skip-equivalence tests assert
	// it); the knob exists for those tests and for debugging.
	DisableSkip bool

	// Chaos, when non-nil, draws deterministic fault injections (panics,
	// artificial livelocks, slow cycles) at the machine's probability
	// points. Attach before Run; a nil injector costs one untaken nil
	// check per cycle and leaves results bit-identical.
	Chaos *chaos.Injector

	// Tap, when non-nil, receives live progress publications from the run
	// loop: lock-free cycle/commit counters, a throttled sample ring, and
	// a bridged metrics snapshot, all safe to read from other goroutines
	// while the run is in flight (heartbeats, the telemetry HTTP server,
	// the flight recorder). Attach before Run; a nil tap costs one untaken
	// nil check per run-loop iteration.
	Tap *ProgressTap

	// Deprecated: DisableParallel does nothing; stepping is always
	// sequential. The field remains only so existing callers compile, and
	// is deleted with the next change to the benchmark module.
	DisableParallel bool

	// Sample, when enabled, switches the run to SMARTS-style sampled
	// simulation: detailed execution only inside the regime's measurement
	// windows, functional fast-forward with cache/predictor warming in
	// between, and a whole-run statistical estimate (Stats.Sampled) on the
	// result. The zero value is fully detailed simulation. See sample.go.
	Sample sample.Config

	cfg  Config
	prog *isa.Program
	img  *memimg.Image
	hier *mem.Hierarchy

	// tus holds the thread units inline, one contiguous block indexed by
	// TU id. The slice is sized once at New and never reallocated — cores
	// and the hierarchy hold &tus[i] for the machine's lifetime — so
	// iteration must always go through &m.tus[i], never a range copy.
	tus []threadUnit

	// wake caches each TU's nextWake bound: step skips a TU while its
	// bound lies in the future. 0 means stale (see threadUnit.touch);
	// nextWake recomputes stale bounds. live has bit i set unless TU i's
	// bound is neverWake, so the per-cycle scans (step, nextWake) visit
	// only the TUs that can have work; NumTUs ≤ 63 fits one word.
	wake []uint64
	live uint64

	cycle      uint64
	halted     bool
	inParallel bool
	regionMask int64
	pending    *pendingFork // nil or &forkSlot
	seqLoops   bool
	// forkSlot holds the one pending fork a machine can have (OnFork
	// panics on a second), so forks reuse it instead of allocating.
	forkSlot pendingFork

	// progress counts retirement-class events (committed instructions,
	// drained stores, thread starts and deaths); the watchdog fires when
	// it stays flat for WatchdogCycles. livelocked is set by the chaos
	// injector to freeze every TU so the watchdog provably trips.
	progress   uint64
	livelocked bool

	parCycles    uint64
	forks        uint64
	aborts       uint64
	wrongThreads uint64
	mbOverflows  uint64

	// Sampled-simulation state (see sample.go): the phase controller, the
	// persistent functional engine for fast-forward legs, and the TU its
	// warming hooks currently target.
	sampler *sample.Sampler
	eng     *interp.Engine
	ffTU    int
}

// New builds a machine for the given program.
func New(cfg Config, prog *isa.Program) (*Machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	hier, err := mem.NewHierarchy(cfg.NumTUs, cfg.Mem)
	if err != nil {
		return nil, err
	}
	img := memimg.New()
	asm.LoadData(prog, img)
	m := &Machine{
		cfg:      cfg,
		prog:     prog,
		img:      img,
		hier:     hier,
		seqLoops: cfg.NumTUs == 1,
	}
	ccfg := cfg.Core
	ccfg.SeqLoops = m.seqLoops
	m.tus = make([]threadUnit, cfg.NumTUs)
	m.wake = make([]uint64, cfg.NumTUs) // all stale: every TU steps once
	m.live = 1<<uint(cfg.NumTUs) - 1
	for id := 0; id < cfg.NumTUs; id++ {
		tu := &m.tus[id]
		tu.init(m, id)
		c, err := core.New(ccfg, prog, hier.IUnit(id), tu, tu)
		if err != nil {
			return nil, err
		}
		tu.core = c
	}
	return m, nil
}

// Hierarchy exposes the memory system (stats, tests).
func (m *Machine) Hierarchy() *mem.Hierarchy { return m.hier }

// Image exposes the functional memory.
func (m *Machine) Image() *memimg.Image { return m.img }

// Cycle returns the current cycle count.
func (m *Machine) Cycle() uint64 { return m.cycle }

// Run executes the program to completion and returns aggregate results.
func (m *Machine) Run() (*Result, error) {
	return m.RunContext(context.Background())
}

// RunContext is Run under supervision: panics inside the simulator are
// recovered into simerr.Panic (with stack and machine state), ctx
// cancellation and deadlines end the run with simerr.Canceled/Timeout, the
// forward-progress watchdog turns silent livelocks into simerr.Deadlock,
// and the MaxCycles bound reports simerr.Runaway. Every returned error is
// a *simerr.Error carrying the failure cycle and a per-TU state snapshot.
func (m *Machine) RunContext(ctx context.Context) (res *Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			e := simerr.FromPanic("sta.Run", r)
			e.Cycle = m.cycle
			e.TUs = m.Snapshot()
			res, err = nil, e
		}
		// Final publication (success or failure) so late readers — the
		// flight recorder most of all — see the terminal state.
		m.publishProgress(true)
	}()
	m.attachMetrics()
	m.attachAttrib()
	m.attachChaos()
	if m.Sample.Enabled() {
		m.initSample()
	}
	m.tus[0].startMain()
	wd := m.cfg.WatchdogCycles
	if wd == 0 {
		wd = DefaultWatchdogCycles
	}
	var done <-chan struct{}
	if ctx != nil {
		done = ctx.Done()
	}
	// wdLastCycle is the cycle at which forward progress was last seen; the
	// watchdog fires when progress stays flat for wd cycles.
	wdLast, wdLastCycle := m.progress, m.cycle
	for iter := uint64(0); !m.halted; iter++ {
		if m.progress != wdLast {
			wdLast, wdLastCycle = m.progress, m.cycle
		}
		if m.cycle-wdLastCycle >= wd {
			return nil, m.stallError(simerr.Deadlock,
				fmt.Errorf("no instruction retired for %d cycles (watchdog window)", wd))
		}
		if m.cycle >= m.cfg.MaxCycles {
			return nil, m.stallError(simerr.Runaway,
				fmt.Errorf("exceeded %d cycles without halting", m.cfg.MaxCycles))
		}
		if m.Tap != nil && iter&1023 == 0 {
			m.publishProgress(false)
		}
		if done != nil && iter&1023 == 0 {
			select {
			case <-done:
				e := simerr.Classify("sta.Run", ctx.Err(), simerr.Canceled)
				e.Cycle = m.cycle
				e.TUs = m.Snapshot()
				return nil, e
			default:
			}
		}
		m.step()
		if m.sampler != nil && !m.halted {
			if serr := m.sampleCheck(ctx); serr != nil {
				return nil, serr
			}
		}
		if !m.halted && !m.DisableSkip {
			m.skipIdle(wdLastCycle + wd)
		}
	}
	// Drain: let outstanding wrong threads disappear with the machine; the
	// program result is already architectural.
	m.Metrics.Finish(m.cycle)
	m.Attrib.Finish()
	return m.result(), nil
}

// stallError builds the structured Deadlock/Runaway diagnostic.
func (m *Machine) stallError(kind simerr.Kind, cause error) *simerr.Error {
	e := simerr.New(kind, "sta.Run", cause)
	e.Cycle = m.cycle
	e.TUs = m.Snapshot()
	return e
}

// attachChaos wires the fault injector into the cores and the memory
// hierarchy; called once at the top of Run, like attachMetrics.
func (m *Machine) attachChaos() {
	if m.Chaos == nil {
		return
	}
	// Each core draws from its own forked stream, keyed by TU id, so a
	// core's injection sequence depends only on its own step history.
	// Machine- and hierarchy-level points stay on the root injector.
	for i := range m.tus {
		m.tus[i].core.SetChaos(m.Chaos.Fork(fmt.Sprintf("tu%d", i)))
	}
	m.hier.SetChaos(m.Chaos)
}

// step advances the whole machine one cycle.
func (m *Machine) step() {
	if m.Chaos != nil {
		m.Chaos.Panic(chaos.PointMachineStep)
		if m.Chaos.Hit(chaos.PointLivelock) {
			m.livelocked = true
		}
	}
	if !m.livelocked {
		m.hier.BeginCycle(m.cycle)
		if !m.DisableSkip && m.Chaos == nil {
			m.stepLive()
		} else {
			// Under chaos every TU steps, so each core's per-step fault
			// draws are those of the stepped clock.
			for i := range m.tus {
				m.tus[i].step(m.cycle)
				m.tus[i].touch()
			}
		}
		m.tryStartPending()
		for woken := m.hier.Tick(m.cycle); woken != 0; woken &= woken - 1 {
			m.tus[bits.TrailingZeros64(woken)].touch()
		}
	}
	m.endCycle()
}

// stepLive steps the live TUs whose wake bound is due, in ascending TU
// order; a TU whose bound lies in the future would step as a no-op, so it
// sleeps. The live set is re-read after each TU, so a TU that an earlier
// one touches this cycle still steps in it, as in a sweep over every TU.
func (m *Machine) stepLive() {
	for rest := m.live; rest != 0; {
		i := bits.TrailingZeros64(rest)
		if m.wake[i] <= m.cycle {
			tu := &m.tus[i]
			tu.step(m.cycle)
			tu.touch()
		}
		rest = m.live &^ (2<<uint(i) - 1)
	}
}

// endCycle advances the clock: the parallel-cycle counter, the cycle
// itself, and the metrics sampler. Shared by step and the sampled run's
// hierarchy drain so both account identically.
func (m *Machine) endCycle() {
	if m.inParallel {
		m.parCycles++
	}
	m.cycle++
	if m.Metrics != nil {
		m.Metrics.MaybeSample(m.cycle)
	}
}

// skipIdle fast-forwards the clock over cycles that are provably no-ops:
// every component reports the earliest future cycle at which stepping it
// could change any state, and the span up to the minimum is skipped in one
// jump — the clock and the parallel-cycle counter advance by arithmetic,
// and the metrics sampler replays any crossed sample boundaries in bulk
// (Collector.FastForward), all bit-identical to stepping the empty cycles.
// Called right after step, so m.cycle-1 is the cycle just stepped.
// wdDeadline is the cycle the forward-progress watchdog would fire at; the
// skip stops there so the deadlock diagnostic trips at the same cycle it
// would without skipping.
func (m *Machine) skipIdle(wdDeadline uint64) {
	wake := m.nextWake(m.cycle - 1)
	if wake <= m.cycle {
		return
	}
	if wake > wdDeadline {
		wake = wdDeadline
	}
	if wake > m.cfg.MaxCycles {
		// Stop at the limit so the runaway diagnostic fires at the same
		// cycle it would without skipping.
		wake = m.cfg.MaxCycles
	}
	if wake <= m.cycle {
		return
	}
	from := m.cycle
	if m.inParallel {
		m.parCycles += wake - from
	}
	m.cycle = wake
	if m.Metrics != nil {
		m.Metrics.FastForward(from, wake)
	}
}

// nextWake returns the earliest cycle after the just-stepped cycle at which
// any component of the machine could change state. It first refreshes every
// stale per-TU bound (a TU that stepped, received a fill, or was touched),
// so Machine.step can let each TU sleep until its own wake cycle, and drops
// a TU whose bound becomes neverWake from the live set until it is touched.
func (m *Machine) nextWake(cycle uint64) uint64 {
	wake := m.hier.NextWake(cycle)
	for rest := m.live; rest != 0; rest &= rest - 1 {
		i := bits.TrailingZeros64(rest)
		w := m.wake[i]
		if w <= cycle {
			if w = m.tus[i].nextWake(cycle); w == neverWake {
				m.live &^= 1 << uint(i)
			}
			m.wake[i] = w
		}
		if w < wake {
			wake = w
		}
	}
	if pf := m.pending; pf != nil {
		if pf.startAt == 0 {
			// Not yet scheduled: the delay is pinned the cycle the target TU
			// idles. The target idling is itself a stepped event, so only an
			// already-idle target forces stepping now.
			if m.tus[(pf.fromTU+1)%m.cfg.NumTUs].state == tuIdle {
				return cycle + 1
			}
		} else if pf.startAt < wake {
			wake = pf.startAt
			if wake <= cycle {
				wake = cycle + 1
			}
		}
	}
	return wake
}

// tryStartPending launches a waiting fork once its target TU is idle and
// the fork+transfer delay has elapsed.
func (m *Machine) tryStartPending() {
	pf := m.pending
	if pf == nil {
		return
	}
	target := (pf.fromTU + 1) % m.cfg.NumTUs
	tu := &m.tus[target]
	if tu.state != tuIdle {
		return
	}
	if pf.startAt == 0 {
		nvals := bits.OnesCount64(uint64(pf.mask))
		pf.startAt = m.cycle + uint64(m.cfg.ForkDelay+m.cfg.TransferPerValue*nvals)
		return
	}
	if m.cycle < pf.startAt {
		return
	}
	m.pending = nil
	m.startThread(pf, tu)
}

// startThread begins a forked thread on an idle TU. If the forking thread
// has already retired (its write-back completed before this thread could
// start), the new thread is the oldest live thread: its predecessor's
// stores are all in memory and no TSAG flag is owed.
func (m *Machine) startThread(pf *pendingFork, tu *threadUnit) {
	parent := &m.tus[pf.fromTU]
	parentLive := parent.gen == pf.parentGen
	tu.gen++
	tu.state = tuRun
	tu.parMode = true
	tu.wrong = parentLive && parent.wrong
	tu.abortResume = -1
	tu.memBuf.reset()
	tu.tsagDone = false
	tu.tsagChainDone = false
	tu.predChainAt = 0
	tu.hasPredFlag = false
	clear(tu.ownTargets)
	tu.succ = -1
	if parentLive {
		// Link into the thread chain and inherit dependence state.
		tu.pred = pf.fromTU
		parent.succ = tu.id
		hop := uint64(m.cfg.TransferPerValue)
		tu.memBuf.inheritFrom(parent.memBuf, parent.ownTargets, m.cycle, hop)
		// If the parent's TSAG chain is already complete, the flag is en route.
		if parent.tsagChainDone {
			tu.hasPredFlag = true
			tu.predChainAt = m.cycle + hop
		}
	} else {
		tu.pred = -1
	}
	tu.startedAt = m.cycle
	tu.core.StartThread(pf.target, pf.mask, &pf.regs, tu.wrong)
	tu.touch()
	m.forks++
	m.progress++ // thread starts count as forward progress
	m.emit(tu.id, trace.ThreadStart, int64(pf.target))
}

// emit sends a trace event if a tracer is attached.
func (m *Machine) emit(tuID int, kind trace.Kind, arg int64) {
	if m.Trace != nil {
		m.Trace.Event(trace.Event{Cycle: m.cycle, TU: tuID, Kind: kind, Arg: arg})
	}
}

// forEachSuccessor calls fn(i, s) for each thread strictly after tu in the
// chain, in ring order (i counts from 0), without allocating. The next link
// is read before fn runs, so fn may kill or detach the current node (as the
// abort path does) without cutting the walk short.
func (m *Machine) forEachSuccessor(tu *threadUnit, fn func(i int, s *threadUnit)) {
	seen := 0
	for id := tu.succ; id >= 0 && seen < m.cfg.NumTUs; {
		s := &m.tus[id]
		id = s.succ
		fn(seen, s)
		seen++
	}
}

// result gathers final statistics.
func (m *Machine) result() *Result {
	r := &Result{MemCheck: m.img.Checksum()}
	s := &r.Stats
	s.Cycles = m.cycle
	s.ParCycles = m.parCycles
	s.Forks = m.forks
	s.Aborts = m.aborts
	s.WrongThreads = m.wrongThreads
	for i := range m.tus {
		tu := &m.tus[i]
		cs := tu.core.Stats
		s.Commits += cs.Commits
		s.Branches += cs.Branches
		s.Mispredicts += cs.Mispredicts
		s.WrongPathLoads += cs.WrongPathLoadsIssued
		du := m.hier.DUnit(tu.id)
		s.L1DAccesses += du.Accesses
		s.L1DMisses += du.Misses
		s.L1DTraffic += du.Traffic
		s.WrongLoads += du.WrongAcc
		if du.WrongAcc >= cs.WrongPathLoadsIssued {
			s.WrongThLoads += du.WrongAcc - cs.WrongPathLoadsIssued
		}
		s.WECHits += du.SideHits
		s.WECInserts += du.SideInserts
		s.WrongUseful += du.WrongUseful
		s.PrefIssued += du.PrefIssued
		s.PrefUseful += du.PrefUseful
		s.ParCommits += tu.parCommits
	}
	s.L2Accesses = m.hier.L2Accesses
	s.L2Misses = m.hier.L2Misses
	s.MemAccesses = m.hier.DRAMFills
	s.UpdateTraffic = m.hier.UpdateBus
	for i := range m.tus {
		if m.tus[i].halted {
			r.IntRegs = m.tus[i].core.IntRegs
		}
	}
	if m.sampler != nil {
		s.Sampled = m.sampler.Finish(m.sampleCounters())
	}
	return r
}

// tuStateNames maps tuState values onto the names used in diagnostics.
var tuStateNames = [...]string{
	tuIdle:    "idle",
	tuRun:     "run",
	tuWBWait:  "wb-wait",
	tuWBDrain: "wb-drain",
}

// Snapshot captures every thread unit's pipeline state for diagnostics:
// the lifecycle state, the thread-chain links, the memory-buffer occupancy,
// and the core's ROB-head summary. Used by the watchdog, the panic
// supervisor, and stasim's failure report.
func (m *Machine) Snapshot() []simerr.TUState {
	out := make([]simerr.TUState, len(m.tus))
	for i := range m.tus {
		tu := &m.tus[i]
		out[i] = simerr.TUState{
			ID:      tu.id,
			State:   tuStateNames[tu.state],
			Wrong:   tu.wrong,
			Running: tu.core.Running(),
			Pred:    tu.pred,
			Succ:    tu.succ,
			MemBuf:  tu.memBuf.size(),
			Head:    tu.core.DebugHead(),
		}
	}
	return out
}
