package sta

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/trace"
)

// threadUnit couples one out-of-order core with its thread-pipelining
// state: lifecycle, speculative memory buffer, target-store bookkeeping,
// and the TSAG-chain dependence gate. It implements core.DMem and core.Env.
type threadUnit struct {
	m    *Machine
	id   int
	core *core.Core

	state       tuState
	gen         uint64 // thread identity; bumps whenever the TU's thread changes
	parMode     bool   // executing a parallel-region thread (stores buffered)
	wrong       bool
	pred, succ  int
	abortResume int // pc to resume sequentially after write-back; -1 = none
	halted      bool

	memBuf     *memBuf
	ownTargets map[uint64]*mbEntry // own announced target stores

	// TSAG-chain gate: loads may issue only when every upstream thread has
	// finished its TSAG stage (all target addresses announced).
	tsagDone      bool
	tsagChainDone bool
	hasPredFlag   bool
	predChainAt   uint64

	lastCommits uint64
	lastWrong   uint64 // last observed wrong-thread commit count
	parCommits  uint64
	startedAt   uint64 // cycle the current thread began (metrics lifetime)
}

// touch invalidates the TU's cached wake bound (Machine.wake) and puts it
// in the live set: it stepped, received a fill, or another TU, the fork
// logic or the sampler changed its state from outside its own step.
func (tu *threadUnit) touch() {
	tu.m.wake[tu.id] = 0
	tu.m.live |= 1 << uint(tu.id)
}

// init prepares a zero-valued thread unit in place. Thread units live in
// the machine's value slice, so they are initialized where they sit rather
// than allocated — the core and hierarchy keep the resulting &m.tus[id]
// pointer for the machine's lifetime.
func (tu *threadUnit) init(m *Machine, id int) {
	*tu = threadUnit{
		m:           m,
		id:          id,
		pred:        -1,
		succ:        -1,
		abortResume: -1,
		memBuf:      newMemBuf(m.cfg.MemBufEntries),
		ownTargets:  make(map[uint64]*mbEntry),
	}
}

// startMain begins sequential execution of the program on this TU.
func (tu *threadUnit) startMain() {
	tu.state = tuRun
	tu.parMode = false
	tu.core.StartMain()
}

func (tu *threadUnit) du() *mem.DUnit { return tu.m.hier.DUnit(tu.id) }

// step advances the TU one machine cycle.
func (tu *threadUnit) step(cycle uint64) {
	tu.updateChain(cycle)
	switch tu.state {
	case tuIdle:
		return
	case tuRun:
		tu.core.Step(cycle)
		delta := tu.core.Stats.Commits - tu.lastCommits
		tu.lastCommits = tu.core.Stats.Commits
		wdelta := tu.core.Stats.WrongCommits - tu.lastWrong
		tu.lastWrong = tu.core.Stats.WrongCommits
		tu.m.progress += delta + wdelta
		if tu.parMode || (tu.m.seqLoops && tu.m.inParallel) {
			tu.parCommits += delta
		}
	case tuWBWait:
		if tu.pred < 0 {
			tu.state = tuWBDrain
			tu.m.emit(tu.id, trace.WBDrain, int64(tu.memBuf.pendingStores()))
		}
	case tuWBDrain:
		tu.drainWB(cycle)
	}
}

// updateChain propagates TSAG_DONE flags down the thread chain (§2.2,
// Figure 2): a thread's chain completes when its own TSAG stage is done and
// its predecessor's chain flag has arrived over the ring.
func (tu *threadUnit) updateChain(cycle uint64) {
	if !tu.parMode || tu.tsagChainDone || !tu.tsagDone {
		return
	}
	if tu.pred >= 0 && (!tu.hasPredFlag || cycle < tu.predChainAt) {
		return
	}
	tu.tsagChainDone = true
	if tu.succ >= 0 {
		s := &tu.m.tus[tu.succ]
		s.hasPredFlag = true
		s.predChainAt = cycle + uint64(tu.m.cfg.TransferPerValue)
		s.touch()
	}
}

// drainWB writes buffered stores to the caches, a port's worth per cycle.
func (tu *threadUnit) drainWB(cycle uint64) {
	du := tu.du()
	for i := 0; i < tu.m.cfg.Mem.L1DPorts; i++ {
		s, ok := tu.memBuf.drainOne()
		if !ok {
			tu.finishWB(cycle)
			return
		}
		tu.m.img.WriteWord(s.addr, s.val)
		tu.m.progress++ // drained stores count as forward progress
		// Write-back drain: the buffered store lost its issuing PC.
		du.Access(cycle, s.addr, mem.Store, mem.SrcDemand, -1).Release()
	}
	if tu.memBuf.pendingStores() == 0 {
		tu.finishWB(cycle)
	}
}

// finishWB retires the thread or resumes sequential execution after an
// aborting thread's write-back.
func (tu *threadUnit) finishWB(cycle uint64) {
	tu.mbStats()
	if tu.m.Obs != nil {
		tu.m.Obs.ThreadRetire.Observe(cycle - tu.startedAt)
	}
	// This thread's target stores are now in memory: drop them from live
	// successors' buffers so buffer occupancy stays bounded by the live
	// thread window (a retired thread's slots are freed in real hardware).
	tu.m.forEachSuccessor(tu, func(_ int, s *threadUnit) {
		for addr := range tu.ownTargets {
			delete(s.memBuf.upstream, addr)
		}
		s.touch()
	})
	if tu.abortResume >= 0 {
		pc := tu.abortResume
		tu.abortResume = -1
		tu.parMode = false
		tu.pred, tu.succ = -1, -1
		tu.m.inParallel = false
		tu.state = tuRun
		tu.core.ContinueAt(pc)
		tu.m.emit(tu.id, trace.SeqResume, int64(pc))
		return
	}
	// Normal retirement: the successor becomes the oldest thread.
	if tu.succ >= 0 {
		s := &tu.m.tus[tu.succ]
		s.pred = -1
		s.touch()
	}
	tu.m.emit(tu.id, trace.Retire, 0)
	tu.detach()
}

// detach idles the TU and clears its thread identity.
func (tu *threadUnit) detach() {
	tu.gen++
	tu.state = tuIdle
	tu.parMode = false
	tu.wrong = false
	tu.pred, tu.succ = -1, -1
	tu.abortResume = -1
	tu.tsagDone, tu.tsagChainDone = false, false
	tu.hasPredFlag = false
}

// kill discards the thread entirely (wrong-thread death or abort kill).
func (tu *threadUnit) kill() {
	tu.m.emit(tu.id, trace.Kill, 0)
	tu.mbStats()
	if tu.m.Obs != nil {
		tu.m.Obs.ThreadKill.Observe(tu.m.cycle - tu.startedAt)
	}
	tu.core.Kill()
	tu.memBuf.reset()
	tu.detach()
	tu.touch()
}

func (tu *threadUnit) mbStats() {
	tu.m.mbOverflows += tu.memBuf.Overflows
	tu.memBuf.Overflows = 0
}

// ---- core.DMem implementation ----

// TryLoad performs the run-time dependence check, then the cache access.
// wrong marks wrong-thread execution (a thread running past its abort).
func (tu *threadUnit) TryLoad(cycle uint64, addr uint64, wrong bool, pc int) core.LoadResult {
	if tu.parMode {
		if val, st := tu.memBuf.lookup(addr, cycle); st == mbHit {
			return core.LoadResult{Status: core.LoadForwarded, Value: val}
		} else if st == mbStall {
			return core.LoadResult{Status: core.LoadStall}
		}
	}
	du := tu.du()
	if !du.CanAccept() {
		return core.LoadResult{Status: core.LoadNoPort}
	}
	src := mem.SrcDemand
	if wrong {
		src = mem.SrcWrongThread
	}
	val := tu.m.img.ReadWord(addr & mem.PhysMask)
	req := du.Access(cycle, addr, mem.Load, src, pc)
	return core.LoadResult{Status: core.LoadIssued, Value: val, Req: req}
}

// WrongLoad issues a squashed wrong-path load purely for cache effects.
func (tu *threadUnit) WrongLoad(cycle uint64, addr uint64, pc int) bool {
	du := tu.du()
	if !du.CanAccept() {
		return false
	}
	du.Access(cycle, addr, mem.Load, mem.SrcWrongPath, pc).Release()
	return true
}

// CommitStore routes a committed store: buffered in the speculative memory
// buffer during a parallel thread, written straight through (with update
// coherence) during sequential execution.
func (tu *threadUnit) CommitStore(cycle uint64, addr uint64, val int64, target bool, pc int) {
	if !tu.parMode {
		tu.m.img.WriteWord(addr, val)
		tu.du().Access(cycle, addr, mem.Store, mem.SrcDemand, pc).Release()
		tu.m.hier.SequentialUpdate(tu.id, addr)
		return
	}
	tu.memBuf.writeOwn(addr, val)
	if target {
		e, ok := tu.ownTargets[addr]
		if !ok {
			e = &mbEntry{}
			tu.ownTargets[addr] = e
		}
		e.hasVal = true
		e.val = val
		hop := uint64(tu.m.cfg.TransferPerValue)
		tu.m.forEachSuccessor(tu, func(i int, s *threadUnit) {
			s.memBuf.deliver(addr, val, cycle+hop*uint64(i+1))
			s.touch()
		})
	}
}

// LoadsAllowed gates the computation stage on the TSAG chain.
func (tu *threadUnit) LoadsAllowed() bool {
	return !tu.parMode || tu.tsagChainDone
}

// ---- core.Env implementation ----

// OnBegin opens a parallel region: leftover wrong threads die, and this TU
// becomes the region's head thread.
func (tu *threadUnit) OnBegin(cycle uint64, mask int64) {
	m := tu.m
	m.inParallel = true
	m.regionMask = mask
	m.emit(tu.id, trace.Begin, mask)
	if m.seqLoops {
		return
	}
	for i := range m.tus {
		if m.tus[i].wrong {
			m.tus[i].kill()
		}
	}
	tu.gen++
	tu.parMode = true
	tu.pred, tu.succ = -1, -1
	tu.startedAt = cycle
	tu.memBuf.reset()
	clear(tu.ownTargets)
	tu.tsagDone, tu.tsagChainDone = false, false
	tu.hasPredFlag = false
}

// OnFork records a committed FORK; the thread starts once the next TU in
// the ring is idle and the fork/transfer delay has elapsed.
func (tu *threadUnit) OnFork(cycle uint64, target int) {
	m := tu.m
	if m.seqLoops {
		m.forks++
		return
	}
	if tu.wrong {
		return // wrong threads may not fork (§3.1.2)
	}
	if !tu.parMode {
		panic(fmt.Sprintf("sta: FORK outside a parallel region on tu%d", tu.id))
	}
	if m.pending != nil {
		panic("sta: two pending forks (workload forked twice per iteration?)")
	}
	pf := &m.forkSlot
	*pf = pendingFork{fromTU: tu.id, target: target, mask: m.regionMask, parentGen: tu.gen}
	pf.regs = tu.core.IntRegs
	m.pending = pf
	m.emit(tu.id, trace.Fork, int64(target))
	m.tryStartPending()
}

// OnTsagd marks the end of this thread's TSAG stage.
func (tu *threadUnit) OnTsagd(cycle uint64) {
	if tu.m.seqLoops {
		return
	}
	tu.tsagDone = true
	tu.m.emit(tu.id, trace.Tsagd, 0)
	tu.updateChain(cycle)
}

// OnTsa announces a target-store address to all downstream threads.
func (tu *threadUnit) OnTsa(cycle uint64, addr uint64) {
	if tu.m.seqLoops || !tu.parMode {
		return
	}
	if _, ok := tu.ownTargets[addr]; !ok {
		tu.ownTargets[addr] = &mbEntry{}
	}
	hop := uint64(tu.m.cfg.TransferPerValue)
	tu.m.forEachSuccessor(tu, func(i int, s *threadUnit) {
		s.memBuf.announce(addr, cycle+hop*uint64(i+1))
		s.touch()
	})
}

// OnThend ends the iteration body: correct threads proceed to write-back,
// wrong threads kill themselves (they never write back, §3.1.2).
func (tu *threadUnit) OnThend(cycle uint64) {
	if tu.m.seqLoops {
		return
	}
	if tu.wrong {
		tu.kill()
		return
	}
	tu.m.emit(tu.id, trace.ThreadEnd, 0)
	tu.state = tuWBWait
}

// OnAbort ends the parallel region (correct thread) or kills a wrong
// thread. Successor threads are killed, or marked wrong under wth.
func (tu *threadUnit) OnAbort(cycle uint64, resumePC int) {
	m := tu.m
	if m.seqLoops {
		m.aborts++
		m.inParallel = false
		return
	}
	if tu.wrong {
		tu.kill()
		return
	}
	m.aborts++
	m.emit(tu.id, trace.Abort, int64(resumePC))
	m.forEachSuccessor(tu, func(_ int, s *threadUnit) {
		if m.cfg.WrongThreadExec {
			if !s.wrong {
				s.wrong = true
				s.core.MarkWrong()
				s.touch()
				m.wrongThreads++
				m.emit(s.id, trace.WrongMark, 0)
			}
		} else {
			s.kill()
		}
	})
	tu.succ = -1
	m.pending = nil // a pending fork would be an iteration past the exit
	tu.abortResume = resumePC
	tu.state = tuWBWait
}

// neverWake mirrors the components' "no pending events" NextWake value.
const neverWake = ^uint64(0)

// nextWake returns the earliest future cycle at which stepping this TU
// could change state, given cycle was just stepped and nothing outside the
// TU touches it first (see Machine.skipIdle and Machine.wake).
func (tu *threadUnit) nextWake(cycle uint64) uint64 {
	wake := uint64(neverWake)
	switch tu.state {
	case tuIdle:
		// Inert until an external event (fork start) re-activates it.
	case tuWBWait:
		if tu.pred < 0 {
			return cycle + 1 // becomes the oldest thread and starts draining
		}
		// Otherwise woken by the predecessor's retirement, which touches
		// this TU.
	case tuWBDrain:
		return cycle + 1 // drains stores every cycle
	case tuRun:
		wake = tu.core.NextWake(cycle)
	}
	// The TSAG chain flag can complete independently of the core's state
	// (updateChain runs at the top of every step).
	if tu.parMode && tu.tsagDone && !tu.tsagChainDone {
		if tu.pred < 0 {
			return cycle + 1
		}
		if tu.hasPredFlag {
			if tu.predChainAt <= cycle+1 {
				return cycle + 1
			}
			if tu.predChainAt < wake {
				wake = tu.predChainAt
			}
		}
		// Without the flag, the predecessor's updateChain delivers it and
		// touches this TU.
	}
	return wake
}

// OnHalt stops the machine.
func (tu *threadUnit) OnHalt(cycle uint64) {
	tu.halted = true
	tu.m.halted = true
	tu.m.emit(tu.id, trace.Halt, 0)
}
