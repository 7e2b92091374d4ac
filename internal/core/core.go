// Package core implements one thread unit of the superthreaded processor:
// an out-of-order superscalar pipeline with branch prediction, a reorder
// buffer, a load/store queue with conservative memory disambiguation and
// store-to-load forwarding, per-class functional unit pools, and full
// speculative register state (values are computed at execute, so loads on
// mispredicted paths have real addresses — the property wrong-path
// prefetching depends on).
//
// The core is driven cycle by cycle via Step. It delegates all data-memory
// access to a DMem (implemented by the sta package, which adds the
// speculative memory buffer and run-time dependence checking) and all
// superthreaded control effects to an Env, invoked in program order at
// commit.
//
// Wrong-path load continuation (paper §3.1.1): on a branch misprediction
// recovery, squashed loads whose effective address was already computed but
// which had not yet accessed memory are moved to a wrong-load queue; the
// queue keeps issuing them to the memory system — tagged wrong-execution —
// under normal port arbitration. Loads whose address was not ready are
// squashed outright, exactly as in the paper's Figure 3.
package core

import (
	"fmt"
	"math"

	"repro/internal/bpred"
	"repro/internal/chaos"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/metrics"
)

// Config sizes one thread unit's pipeline (Table 3 / §5.2 resources).
type Config struct {
	IssueWidth int // fetch, issue, and commit width
	ROBSize    int
	LSQSize    int

	IntALU int
	IntMul int
	FPAdd  int
	FPMul  int

	// WrongPathExec enables wrong-path load continuation (wp configs).
	WrongPathExec bool

	// SeqLoops runs thread-pipelined code sequentially: FORK records its
	// target, THEND jumps back to it, ABORT and BEGIN fall through. Used
	// for single-thread-unit machines, which then behave as a conventional
	// superscalar processor with no threading overhead (paper §5.1).
	SeqLoops bool

	Bpred bpred.Config
}

// DefaultConfig returns the 8-issue thread unit used in §5.2.
func DefaultConfig() Config {
	return Config{
		IssueWidth: 8,
		ROBSize:    64,
		LSQSize:    64,
		IntALU:     8,
		IntMul:     4,
		FPAdd:      8,
		FPMul:      4,
		Bpred:      bpred.Default(),
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.IssueWidth <= 0 || c.ROBSize <= 0 || c.LSQSize <= 0 {
		return fmt.Errorf("core: width/ROB/LSQ must be positive")
	}
	if c.IntALU <= 0 || c.IntMul <= 0 || c.FPAdd <= 0 || c.FPMul <= 0 {
		return fmt.Errorf("core: all FU counts must be positive")
	}
	return nil
}

// LoadStatus is the outcome of DMem.TryLoad.
type LoadStatus uint8

// TryLoad outcomes.
const (
	LoadStall     LoadStatus = iota // dependence unresolved; retry later
	LoadNoPort                      // no cache port this cycle; retry
	LoadForwarded                   // value supplied now, hit latency
	LoadIssued                      // request in flight; value valid at completion
)

// LoadResult carries the outcome of a load issue attempt.
type LoadResult struct {
	Status LoadStatus
	Value  int64        // raw 64-bit memory word (bits for FP loads)
	Req    *mem.Request // non-nil when Status == LoadIssued
}

// DMem is the data-memory interface the core issues accesses through. The
// sta package implements it with the speculative memory buffer, target
// store forwarding, and the cache hierarchy underneath.
type DMem interface {
	// TryLoad attempts to issue a load at the given cycle. wrong marks
	// wrong-execution loads (wrong-thread mode); pc is the issuing
	// instruction, threaded through for attribution and the timeline.
	TryLoad(cycle uint64, addr uint64, wrong bool, pc int) LoadResult
	// WrongLoad issues a squashed-path load purely for its cache effects.
	// Returns false when no port was available this cycle.
	WrongLoad(cycle uint64, addr uint64, pc int) bool
	// CommitStore performs a store in program order at commit time.
	// target marks TST target stores; pc is the issuing instruction.
	CommitStore(cycle uint64, addr uint64, val int64, target bool, pc int)
	// LoadsAllowed gates the computation stage: loads may not issue until
	// the thread's run-time dependence-checking state is ready (§2.2).
	LoadsAllowed() bool
}

// Env receives superthreaded control events, in program order, at commit.
type Env interface {
	OnBegin(cycle uint64, mask int64)
	OnFork(cycle uint64, target int)
	OnTsagd(cycle uint64)
	OnTsa(cycle uint64, addr uint64)
	OnThend(cycle uint64)
	// OnAbort receives the PC following the ABORT so the superthreaded
	// machine can resume sequential execution there after write-back.
	OnAbort(cycle uint64, resumePC int)
	OnHalt(cycle uint64)
}

// entry state machine.
const (
	stDispatched uint8 = iota
	stExecuting
	stDone
)

// wrongLoad is one extracted wrong-path load awaiting issue.
type wrongLoad struct {
	addr uint64
	pc   int
}

// Per-entry flag bits (robEntry.flags). Cleared at dispatch; every read of
// a value field below is gated by one of these (or by state), so stale
// values from a slot's previous occupant are never observable.
const (
	fUse1      uint8 = 1 << iota // operand 1 is read by this instruction
	fUse2                        // operand 2 is read
	fS1Rdy                       // operand 1 value resolved
	fS2Rdy                       // operand 2 value resolved
	fAddrKnown                   // effective address computed
	fMemIssued                   // load has accessed memory (or forwarded)
	fValKnown                    // store data ready
)

// Branch-bookkeeping bits (robEntry.bflags).
const (
	bPredTaken  uint8 = 1 << iota // predicted taken at dispatch
	bTaken                        // resolved direction
	bMispredict                   // prediction missed
)

// robEntry is one reorder-buffer slot: a flat value struct, so the ROB is
// a single []robEntry allocated once per core. Hot paths take
// e := &c.rob[idx] once and pay one bounds check per slot, not one per
// field. Slots link to each other only through int32 slot indices; the one
// pointer a slot holds is its in-flight memory request.
//
// Wake-up chain: waitHead is the first waiter on an entry's result; each
// link encodes consumer slot*2+operand, and wNext0/wNext1 hold a waiter's
// own next-waiter links, one per operand. Registration happens at dispatch
// (readOperand found a non-ready producer); broadcast consumes the chain.
// Squash recovery rebuilds all chains from the surviving entries.
//
// Parked loads: a load that finds an older store with an unknown address
// parks on that store and leaves the ready set. parkHead is the first load
// parked on a store slot and parkNext links the loads parked on the same
// store. The store re-arms its list when it issues; dispatch and recovery
// reset the lists (recovery returns every surviving parked load to the
// ready set).
type robEntry struct {
	inst isa.Uop

	doneAt uint64

	// Operand values once resolved; s1rob/s2rob below name the producer
	// slot while an operand waits.
	s1i, s2i int64
	s1f, s2f float64

	// Results.
	ival int64
	fval float64

	// Memory bookkeeping.
	addr      uint64
	storeBits int64
	req       *mem.Request

	pc         int32
	predTarget int32
	s1rob      int32
	s2rob      int32

	waitHead int32
	wNext0   int32
	wNext1   int32

	parkHead int32
	parkNext int32

	state  uint8
	flags  uint8
	bflags uint8
}

// Stats collects the core's own counters.
type Stats struct {
	Commits              uint64 // correct-execution committed instructions
	WrongCommits         uint64 // instructions committed in wrong-thread mode
	Branches             uint64
	Mispredicts          uint64
	Loads                uint64
	Stores               uint64
	WrongPathLoadsIssued uint64 // squashed loads continued to memory
	FetchStallICache     uint64
	SquashedInsts        uint64
}

// Core is one thread unit's pipeline. Not safe for concurrent use.
type Core struct {
	cfg  Config
	dmem DMem
	env  Env
	imem *mem.IUnit
	bp   *bpred.Predictor

	// code is the program's shared decode (isa.Program.Uops), read-only
	// and the same array in every core and functional engine over the
	// program, plus a trailing HALT uop that every out-of-range fetch PC
	// maps to (see isa.DecodeUops).
	code  []isa.Uop
	entry int

	// Architectural state.
	IntRegs [isa.NumIntRegs]int64
	FPRegs  [isa.NumFPRegs]float64

	// Pipeline state.
	rob       []robEntry
	robHead   int
	robTail   int // next free slot
	robCount  int
	renameInt [isa.NumIntRegs]int // producer ROB slot, -1 = architectural
	renameFP  [isa.NumFPRegs]int

	// LSQ ring buffer: ROB slots of in-flight memory ops in program
	// order. Commit always retires the front (program order), so removal
	// is a pop, not a splice.
	lsqBuf   []int
	lsqHead  int
	lsqCount int

	// Occupancy bitmaps over ROB slots, one bit per slot. readyMask marks
	// dispatched entries whose operands are all ready (issue candidates);
	// execMask marks executing entries awaiting completion. Issue and
	// complete iterate set bits in age order instead of scanning the ROB.
	readyMask []uint64
	execMask  []uint64

	fetchPC       int
	fetchStopped  bool
	redirectStall int // front-end bubble cycles after misprediction
	running       bool
	wrongMode     bool // wrong-thread execution: all loads tagged wrong

	// Wrong-path load continuation queue: effective addresses plus the
	// squashed load's PC, kept so the memory system can attribute the
	// wrong-path fill to its instruction. wrongHead indexes the front; both
	// return to zero when the queue empties, so the backing array is reused
	// instead of being consumed from the front.
	wrongQ    []wrongLoad
	wrongHead int

	// seqForkTarget is the last FORK target seen by fetch in SeqLoops mode.
	seqForkTarget int

	fuUsed  [6]int // per FUClass, reset each cycle
	fuLimit [6]int // per FUClass pool size; FUNone and FUMem are unbounded

	// loadToUse, when non-nil, observes load-to-use distances at dispatch.
	loadToUse *metrics.Histogram

	// chaos, when non-nil, draws deterministic panic injections at the top
	// of Step (the supervision layer's core-level fault point).
	chaos *chaos.Injector

	Stats Stats
}

// SetMetrics attaches an observability collector: the core feeds its
// load-to-use histogram, when it has one.
func (c *Core) SetMetrics(m *metrics.Collector) { c.loadToUse = m.LoadToUse }

// SetChaos attaches (or detaches, with nil) a fault injector.
func (c *Core) SetChaos(in *chaos.Injector) { c.chaos = in }

// New builds a core bound to a program, an instruction port, and memory.
func New(cfg Config, prog *isa.Program, imem *mem.IUnit, dmem DMem, env Env) (*Core, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	bp, err := bpred.New(cfg.Bpred)
	if err != nil {
		return nil, err
	}
	words := (cfg.ROBSize + 63) / 64
	c := &Core{
		cfg:       cfg,
		dmem:      dmem,
		env:       env,
		imem:      imem,
		bp:        bp,
		code:      prog.Uops(),
		entry:     prog.Entry,
		rob:       make([]robEntry, cfg.ROBSize),
		lsqBuf:    make([]int, cfg.LSQSize),
		readyMask: make([]uint64, words),
		execMask:  make([]uint64, words),
	}
	c.fuLimit = [6]int{
		isa.FUNone: math.MaxInt, isa.FUIntALU: cfg.IntALU, isa.FUIntMul: cfg.IntMul,
		isa.FUFPAdd: cfg.FPAdd, isa.FUFPMul: cfg.FPMul, isa.FUMem: math.MaxInt,
	}
	c.clearPipeline()
	return c, nil
}

// PoisonValue initializes non-forwarded registers of a freshly forked
// thread; deterministic garbage that surfaces mis-parallelized workloads.
const PoisonValue = int64(-0x2152411021524110)

// StartThread resets the pipeline and begins execution at pc with the
// given forwarded integer registers (mask selects which entries of regs are
// meaningful). All other registers are poisoned. wrongMode marks the thread
// as wrong from birth (a wrong thread's fork).
func (c *Core) StartThread(pc int, mask int64, regs *[isa.NumIntRegs]int64, wrongMode bool) {
	c.clearPipeline()
	for i := 1; i < isa.NumIntRegs; i++ {
		if mask&(1<<uint(i)) != 0 {
			c.IntRegs[i] = regs[i]
		} else {
			c.IntRegs[i] = PoisonValue
		}
	}
	c.IntRegs[0] = 0
	pv := PoisonValue
	poisonFP := math.Float64frombits(uint64(pv))
	for i := range c.FPRegs {
		c.FPRegs[i] = poisonFP
	}
	c.fetchPC = pc
	c.running = true
	c.wrongMode = wrongMode
}

// StartMain begins sequential execution at the program entry with zeroed
// registers (the machine's first thread).
func (c *Core) StartMain() {
	c.clearPipeline()
	for i := range c.IntRegs {
		c.IntRegs[i] = 0
	}
	for i := range c.FPRegs {
		c.FPRegs[i] = 0
	}
	c.fetchPC = c.entry
	c.running = true
	c.wrongMode = false
}

// Kill stops the thread immediately, discarding all in-flight state.
func (c *Core) Kill() {
	c.clearPipeline()
	c.running = false
}

// Running reports whether the core is executing a thread.
func (c *Core) Running() bool { return c.running }

// Wrong reports whether the core is in wrong-thread mode.
func (c *Core) Wrong() bool { return c.wrongMode }

// MarkWrong switches the thread into wrong-execution mode: it keeps
// running, but every memory access from now on is tagged wrong (§3.1.2).
func (c *Core) MarkWrong() { c.wrongMode = true }

// ContinueAt redirects an idle (non-running) core to resume sequential
// execution at pc, keeping architectural state. Used when a thread resumes
// after its write-back stage, e.g. the abort thread continuing into
// sequential code.
func (c *Core) ContinueAt(pc int) {
	c.clearPipeline()
	c.fetchPC = pc
	c.running = true
}

// Predictor exposes the branch predictor (stats).
func (c *Core) Predictor() *bpred.Predictor { return c.bp }

// Quiet reports that the core holds no in-flight state at all: not
// running, empty ROB, and an empty wrong-load queue (a detached TU's core
// keeps draining wrong loads after its thread ends). Sampling safepoints
// require every non-running core quiet so a functional fast-forward never
// races in-flight pipeline work.
func (c *Core) Quiet() bool {
	return !c.running && c.robCount == 0 && c.wrongLen() == 0
}

// wrongLen is the number of queued wrong-path loads.
func (c *Core) wrongLen() int { return len(c.wrongQ) - c.wrongHead }

// SquashForSample flushes the pipeline ahead of a functional fast-forward
// and returns the architecturally exact resume PC: the oldest un-retired
// instruction when the ROB holds any (commit has already written
// everything older into the architectural registers), the fetch PC
// otherwise. The core is left stopped; the fast-forward leg runs the
// functional engine over the architectural state and ContinueAt resumes
// detailed execution.
func (c *Core) SquashForSample() int {
	pc := c.fetchPC
	if c.robCount > 0 {
		pc = int(c.rob[c.robHead].pc)
	}
	c.clearPipeline()
	c.running = false
	return pc
}

func (c *Core) clearPipeline() {
	c.releaseInFlight()
	c.robHead, c.robTail, c.robCount = 0, 0, 0
	for i := range c.renameInt {
		c.renameInt[i] = -1
	}
	for i := range c.renameFP {
		c.renameFP[i] = -1
	}
	c.lsqHead, c.lsqCount = 0, 0
	for i := range c.readyMask {
		c.readyMask[i] = 0
		c.execMask[i] = 0
	}
	c.wrongQ, c.wrongHead = c.wrongQ[:0], 0
	c.fetchStopped = false
	c.redirectStall = 0
}

// releaseInFlight returns every outstanding memory request held by live ROB
// entries to the request pool (the pool defers reuse while the request is
// still pending in an MSHR).
func (c *Core) releaseInFlight() {
	idx := c.robHead
	for p := 0; p < c.robCount; p++ {
		if e := &c.rob[idx]; e.req != nil {
			e.req.Release()
			e.req = nil
		}
		if idx++; idx == c.cfg.ROBSize {
			idx = 0
		}
	}
}

// DebugHead describes the ROB head entry for diagnostics.
func (c *Core) DebugHead() string {
	if c.robCount == 0 {
		return fmt.Sprintf("rob empty fetchPC=%d running=%v", c.fetchPC, c.running)
	}
	e := &c.rob[c.robHead]
	return fmt.Sprintf("head={%v pc=%d st=%d memIssued=%v addrKnown=%v req=%v} n=%d fetchPC=%d",
		e.inst.Op, e.pc, e.state,
		e.flags&fMemIssued != 0, e.flags&fAddrKnown != 0, e.req != nil, c.robCount, c.fetchPC)
}
