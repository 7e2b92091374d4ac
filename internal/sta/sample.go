package sta

import (
	"context"
	"fmt"

	"repro/internal/interp"
	"repro/internal/sample"
	"repro/internal/simerr"
	"repro/internal/trace"
)

// SMARTS-style sampled simulation: the run loop hands control to the
// sampling controller (internal/sample) after every stepped cycle, and the
// controller's phase transitions — detailed warmup, measured detail,
// functional fast-forward — are quantized to the machine's *sequential
// quiescent safepoints*: exactly one thread unit running sequential code,
// every other TU idle with a fully quiet core, no parallel region, no
// pending fork. At such a point the machine's
// entire future is determined by architectural state (registers + memory
// image) plus cache/predictor contents, so detailed execution can be
// suspended, replayed functionally with cache and branch-predictor
// warming, and resumed with ContinueAt — architecturally exact, with only
// the warm microarchitectural state approximated (which the next warmup
// window absorbs).
//
// Determinism: the check runs between step and skipIdle. Idle skips span
// only provably inert cycles (the virtual instruction count cannot change
// inside one), so no safepoint can appear or disappear inside a skipped
// span. Phase transitions therefore land on identical cycle boundaries
// whether or not idle cycles are skipped; the sampling-determinism tests
// pin that.

// ffChunk bounds one StepN call during bulk fast-forward, so cancellation
// and overshoot checks run at a sane granularity.
const ffChunk = 1 << 20

// ffOvershootCap bounds how far past its target a fast-forward may chase a
// parallel-region exit before the machine declares the program malformed
// (a region this long would have tripped MaxCycles in detailed mode).
const ffOvershootCap = 1 << 30

// initSample builds the sampling controller and the persistent functional
// engine with its warming hooks. Everything is allocated here, once, so
// the steady-state fast-forward path allocates nothing (pinned by
// TestFastForwardAllocs).
func (m *Machine) initSample() {
	m.sampler = sample.New(m.Sample)
	blockPCs := m.cfg.Mem.L1IBlock / 16
	if blockPCs < 1 {
		blockPCs = 1
	}
	m.eng = &interp.Engine{
		Prog:     m.prog,
		Mem:      m.img,
		BlockPCs: blockPCs,
		Hooks: interp.Hooks{
			Load:   func(addr uint64) { m.hier.DUnit(m.ffTU).WarmLoad(addr) },
			Store:  func(addr uint64) { m.hier.WarmSequentialStore(m.ffTU, addr) },
			Branch: func(pc int, taken bool) { m.tus[m.ffTU].core.Predictor().Warm(pc, taken) },
			Call:   func(ret int) { m.tus[m.ffTU].core.Predictor().WarmCall(ret) },
			Ret:    func() { m.tus[m.ffTU].core.Predictor().WarmRet() },
			Block:  func(pc int) { m.hier.IUnit(m.ffTU).WarmFetch(pc) },
		},
	}
}

// vcount is the virtual instruction clock sampling phases run on: detailed
// correct-path commits across all thread units plus functionally
// fast-forwarded instructions.
func (m *Machine) vcount() uint64 {
	v := m.sampler.FFInsts()
	for i := range m.tus {
		v += m.tus[i].core.Stats.Commits
	}
	return v
}

// sampleCounters snapshots the counters measurement windows difference.
func (m *Machine) sampleCounters() sample.Counters {
	c := sample.Counters{Cycles: m.cycle}
	for i := range m.tus {
		c.Commits += m.tus[i].core.Stats.Commits
		du := m.hier.DUnit(i)
		c.L1DAcc += du.Accesses
		c.L1DMiss += du.Misses
	}
	return c
}

// atSafepoint returns the lone sequential-running thread unit when the
// machine is at a sequential quiescent safepoint, nil otherwise.
func (m *Machine) atSafepoint() *threadUnit {
	if m.inParallel || m.pending != nil || m.halted || m.livelocked {
		return nil
	}
	var run *threadUnit
	for i := range m.tus {
		tu := &m.tus[i]
		switch tu.state {
		case tuRun:
			if run != nil || tu.parMode || tu.wrong {
				return nil
			}
			run = tu
		case tuIdle:
			// A detached TU's core may still be draining wrong loads; the
			// fast-forward must not race those requests.
			if !tu.core.Quiet() {
				return nil
			}
		default:
			return nil
		}
	}
	return run
}

// sampleCheck advances the sampling phase machine when the current phase
// has run its course and the machine sits at a safepoint. Called by the
// run loop after every stepped cycle.
func (m *Machine) sampleCheck(ctx context.Context) error {
	s := m.sampler
	if !s.Due(m.vcount()) {
		return nil
	}
	tu := m.atSafepoint()
	if tu == nil {
		return nil
	}
	switch s.Phase() {
	case sample.PhaseWarmup:
		s.BeginMeasure(m.sampleCounters())
	case sample.PhaseMeasure:
		ff := s.EndMeasure(m.sampleCounters(), m.vcount())
		if ff > 0 {
			if err := m.fastForward(ctx, tu, ff); err != nil {
				return err
			}
		}
		s.EndFF(m.vcount())
	}
	return nil
}

// drainHier runs the memory hierarchy — alone — until no queued L2 request
// or in-flight fill remains, fast-forwarding over inert gaps exactly like
// skipIdle. Every TU is quiet at this point, so hierarchy-only cycles are
// what detailed stepping would execute anyway; they count as detailed
// cycles (endCycle) and keep the metrics sampler on its boundaries.
func (m *Machine) drainHier() {
	for {
		wake := m.hier.NextWake(m.cycle - 1)
		if wake == neverWake {
			return
		}
		if wake > m.cycle {
			from := m.cycle
			m.cycle = wake
			if m.Obs != nil {
				m.Obs.FastForward(from, wake)
			}
		}
		m.hier.BeginCycle(m.cycle)
		m.hier.Tick(m.cycle)
		m.endCycle()
	}
}

// fastForward suspends detailed execution on tu, drains the memory
// hierarchy, and executes at least ff instructions on the functional
// engine with cache/predictor warming, then resumes detailed execution (or
// halts the machine if the program ends inside the fast-forward). The stop
// point always lies outside a parallel region: resuming detailed execution
// mid-region is unrepresentable (the region's thread-pipelining state
// exists only in detailed mode), so the engine overshoots to the region
// exit when the nominal target lands inside one.
func (m *Machine) fastForward(ctx context.Context, tu *threadUnit, ff uint64) error {
	pc := tu.core.SquashForSample()
	m.drainHier()
	// The squash, the drain's fills and the resume below all change thread
	// units from outside their own steps.
	for i := range m.tus {
		m.tus[i].touch()
	}
	eng := m.eng
	m.ffTU = tu.id
	eng.Int = &tu.core.IntRegs
	eng.FP = &tu.core.FPRegs
	eng.Reset(pc)
	var executed uint64
	var done <-chan struct{}
	if ctx != nil {
		done = ctx.Done()
	}
	for !eng.Halted {
		var n int64
		switch {
		case executed < ff:
			n = int64(ff - executed)
			if n > ffChunk {
				n = ffChunk
			}
		case eng.InPar:
			// Past the target inside a parallel region: single-step so the
			// engine stops on the first instruction outside it.
			n = 1
		default:
			n = 0
		}
		if n == 0 {
			break
		}
		ran, err := eng.StepN(n)
		executed += uint64(ran)
		if err != nil {
			// A malformed program mid-fast-forward is a simulator-grade
			// failure; surface it through the panic supervisor with the
			// machine snapshot attached.
			m.sampler.AddFF(executed)
			panic(fmt.Sprintf("sta: fast-forward failed after %d instructions: %v", executed, err))
		}
		if executed >= ff+ffOvershootCap {
			m.sampler.AddFF(executed)
			panic(fmt.Sprintf("sta: fast-forward overran its target by %d instructions without leaving the parallel region (pc=%d)", executed-ff, eng.PC))
		}
		if done != nil && executed < ff {
			select {
			case <-done:
				// Leave the machine resumable for the snapshot, account what
				// ran, and surface the cancellation like the run loop does.
				m.hier.FlushWarmStores()
				tu.core.ContinueAt(eng.PC)
				m.sampler.AddFF(executed)
				m.progress += executed
				e := simerr.Classify("sta.Run", ctx.Err(), simerr.Canceled)
				e.Cycle = m.cycle
				e.TUs = m.Snapshot()
				return e
			default:
			}
		}
	}
	// The leg is over: the other TUs' L1s take the refreshes the leg's
	// stores deferred (mem.Hierarchy.WarmSequentialStore).
	m.hier.FlushWarmStores()
	m.sampler.AddFF(executed)
	m.progress += executed // fast-forwarded instructions are forward progress
	if eng.Halted {
		tu.halted = true
		m.halted = true
		m.emit(tu.id, trace.Halt, 0)
		return nil
	}
	tu.core.ContinueAt(eng.PC)
	return nil
}
