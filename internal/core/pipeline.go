package core

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/chaos"
	"repro/internal/isa"
)

// RedirectPenalty is the fixed front-end refill bubble after a branch
// misprediction recovery, on top of the natural drain/refill latency.
const RedirectPenalty = 3

// neverWake is the NextWake value of a component with no pending events.
const neverWake = math.MaxUint64

// Step advances the pipeline one cycle. Order within the cycle: commit,
// execute completion (and branch resolution), issue, wrong-path load queue
// drain, fetch/dispatch. Returns false when the core is idle.
func (c *Core) Step(cycle uint64) bool {
	if !c.running && c.robCount == 0 && c.wrongLen() == 0 {
		return false
	}
	if c.chaos != nil {
		c.chaos.Panic(chaos.PointCoreStep)
	}
	for i := range c.fuUsed {
		c.fuUsed[i] = 0
	}
	c.commit(cycle)
	c.complete(cycle)
	c.issue(cycle)
	c.drainWrongQ(cycle)
	c.fetch(cycle)
	return true
}

// NextWake returns the earliest future cycle at which stepping this core
// could change any observable state, given that cycle has just been stepped.
// neverWake means the core is inert until some external event (a memory
// fill, a thread start) arrives. The bound is conservative: it may be
// earlier than the next real state change, never later.
func (c *Core) NextWake(cycle uint64) uint64 {
	if !c.running && c.robCount == 0 && c.wrongLen() == 0 {
		return neverWake
	}
	if c.wrongLen() > 0 {
		return cycle + 1 // wrong-load queue drains under port arbitration
	}
	// Fetch side: if the front end would attempt a fetch next cycle it can
	// dispatch or count an I-cache stall, so the cycle must be stepped.
	if c.running && !c.fetchStopped {
		if c.redirectStall > 0 {
			return cycle + 1 // decrements every fetched cycle
		}
		if c.robCount < c.cfg.ROBSize &&
			(c.fetchUop().Flags&isa.UMem == 0 || c.lsqCount < c.cfg.LSQSize) {
			return cycle + 1
		}
	}
	if c.robCount > 0 && c.rob[c.robHead].state == stDone {
		return cycle + 1 // commit can retire
	}
	// Parked loads are outside the ready set: the store they wait on is
	// ready itself or still waits on an operand, whose producer this bound
	// already covers.
	for _, w := range c.readyMask {
		if w != 0 {
			return cycle + 1 // an entry can attempt issue
		}
	}
	// Only executing entries remain: wake at the earliest completion. An
	// entry waiting on a memory request that is not yet Done is woken by
	// the hierarchy's fill event instead.
	wake := uint64(neverWake)
	for wi, word := range c.execMask {
		for word != 0 {
			b := bits.TrailingZeros64(word)
			word &^= 1 << uint(b)
			e := &c.rob[wi<<6|b]
			if r := e.req; r != nil {
				if r.Done && r.DoneCycle < wake {
					wake = r.DoneCycle
				}
				continue
			}
			if e.doneAt < wake {
				wake = e.doneAt
			}
		}
	}
	if wake != neverWake && wake <= cycle {
		wake = cycle + 1
	}
	return wake
}

// ---- bitmap and wait-chain helpers -------------------------------------

func maskSet(m []uint64, i int)   { m[i>>6] |= 1 << (uint(i) & 63) }
func maskClear(m []uint64, i int) { m[i>>6] &^= 1 << (uint(i) & 63) }

// rangeMask selects the bits of bitmap word w whose slot index lies in
// [lo, hi).
func rangeMask(w, lo, hi int) uint64 {
	m := ^uint64(0)
	if w == lo>>6 {
		m &^= (1 << (uint(lo) & 63)) - 1
	}
	if w == (hi-1)>>6 {
		if top := uint(hi-1)&63 + 1; top < 64 {
			m &= (1 << top) - 1
		}
	}
	return m
}

// ready reports whether a dispatched entry with flag byte f has all
// operands ready: neither used operand may still be unresolved.
func ready(f uint8) bool {
	return f&(fUse1|fS1Rdy) != fUse1 && f&(fUse2|fS2Rdy) != fUse2
}

// addWaiters links each still-unresolved operand of the entry in slot onto
// its producer's wake-up chain. Node encoding: slot*2 + op.
func (c *Core) addWaiters(slot int, e *robEntry) {
	if e.flags&(fUse1|fS1Rdy) == fUse1 {
		p := &c.rob[e.s1rob]
		e.wNext0 = p.waitHead
		p.waitHead = int32(slot << 1)
	}
	if e.flags&(fUse2|fS2Rdy) == fUse2 {
		p := &c.rob[e.s2rob]
		e.wNext1 = p.waitHead
		p.waitHead = int32(slot<<1 | 1)
	}
}

// slotAt is the ROB slot at age position agePos (0 = head, at most
// ROBSize). The ring wraps by one conditional subtraction, not a division.
func (c *Core) slotAt(agePos int) int {
	s := c.robHead + agePos
	if s >= c.cfg.ROBSize {
		s -= c.cfg.ROBSize
	}
	return s
}

// posOf is the age position of a ROB slot (inverse of slotAt).
func (c *Core) posOf(slot int) int {
	p := slot - c.robHead
	if p < 0 {
		p += c.cfg.ROBSize
	}
	return p
}

// fetchUop returns the decoded instruction at the fetch PC; every
// out-of-range PC reads the trailing HALT, as Program.At does.
func (c *Core) fetchUop() *isa.Uop {
	pc, last := uint(c.fetchPC), uint(len(c.code)-1)
	if pc > last {
		pc = last
	}
	return &c.code[pc]
}

// commit retires up to IssueWidth done entries from the ROB head, applying
// architectural effects in program order.
func (c *Core) commit(cycle uint64) {
	for n := 0; n < c.cfg.IssueWidth && c.robCount > 0; n++ {
		idx := c.robHead
		e := &c.rob[idx]
		if e.state != stDone {
			return
		}
		u := &e.inst
		// Architectural register writeback.
		if u.Flags&isa.UDest != 0 {
			if u.Flags&isa.UFPDest != 0 {
				c.FPRegs[u.Rd] = e.fval
				if c.renameFP[u.Rd] == idx {
					c.renameFP[u.Rd] = -1
				}
			} else {
				c.IntRegs[u.Rd] = e.ival
				if c.renameInt[u.Rd] == idx {
					c.renameInt[u.Rd] = -1
				}
			}
		}
		if c.wrongMode {
			c.Stats.WrongCommits++
		} else {
			c.Stats.Commits++
		}
		switch u.Class {
		case isa.ClassLoad:
			c.Stats.Loads++
			c.popLSQ(idx)
		case isa.ClassStore:
			c.Stats.Stores++
			c.dmem.CommitStore(cycle, e.addr, e.storeBits, u.Op == isa.TST, int(e.pc))
			c.popLSQ(idx)
		case isa.ClassBranch:
			c.Stats.Branches++
			bf := e.bflags
			// Train the direction predictor at commit so wrong-path
			// branches never pollute it; count only committed mispredicts.
			c.bp.UpdateDirection(int(e.pc), bf&bTaken != 0, bf&bPredTaken != 0)
			if bf&bMispredict != 0 {
				c.Stats.Mispredicts++
			}
		case isa.ClassALU:
			if u.Op == isa.TSA {
				c.env.OnTsa(cycle, uint64(e.ival))
			}
		case isa.ClassMarker:
			if c.commitMarker(cycle, e) {
				return
			}
		}
		c.retireROBHead()
	}
}

// commitMarker applies a committing marker's superthreaded control event.
// It returns true when the marker ended the thread: the head is then
// already retired and the pipeline squashed.
func (c *Core) commitMarker(cycle uint64, e *robEntry) bool {
	u := &e.inst
	switch u.Op {
	case isa.BEGIN:
		c.env.OnBegin(cycle, u.Imm)
	case isa.FORK:
		c.env.OnFork(cycle, int(u.Imm))
	case isa.TSAGD:
		c.env.OnTsagd(cycle)
	case isa.THEND:
		if c.cfg.SeqLoops {
			c.env.OnThend(cycle)
			return false
		}
		c.retireROBHead()
		c.running = false
		c.squashAll()
		c.env.OnThend(cycle)
		return true
	case isa.ABORT:
		resume := int(e.pc) + 1
		if c.cfg.SeqLoops {
			c.env.OnAbort(cycle, resume)
			return false
		}
		c.retireROBHead()
		c.running = false
		c.squashAll()
		c.env.OnAbort(cycle, resume)
		return true
	case isa.HALT:
		c.retireROBHead()
		c.running = false
		c.squashAll()
		c.env.OnHalt(cycle)
		return true
	}
	return false
}

func (c *Core) retireROBHead() {
	if c.robHead++; c.robHead == c.cfg.ROBSize {
		c.robHead = 0
	}
	c.robCount--
}

// popLSQ removes a committing memory op from the LSQ. Commit proceeds in
// program order and the LSQ is kept in program order, so the committing op
// is always the ring front; anything else is a pipeline bug.
func (c *Core) popLSQ(idx int) {
	if c.lsqCount == 0 || c.lsqBuf[c.lsqHead] != idx {
		panic(fmt.Sprintf("core: committing memory op in ROB slot %d is not the LSQ front (%d entries)", idx, c.lsqCount))
	}
	if c.lsqHead++; c.lsqHead == len(c.lsqBuf) {
		c.lsqHead = 0
	}
	c.lsqCount--
}

// squashAll discards every in-flight entry (thread end or kill). The wrong
// queue is preserved: already-extracted wrong loads keep prefetching.
func (c *Core) squashAll() {
	c.Stats.SquashedInsts += uint64(c.robCount)
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
	c.fetchStopped = true
}

// complete marks finished executions done, broadcasts results to waiting
// consumers, and resolves branches (possibly triggering recovery). Only
// entries in the executing set are visited, in age order.
func (c *Core) complete(cycle uint64) {
	if c.robCount == 0 {
		return
	}
	n := c.cfg.ROBSize
	end := c.robHead + c.robCount
	if end <= n {
		c.completeRange(cycle, c.robHead, end)
		return
	}
	if !c.completeRange(cycle, c.robHead, n) {
		return
	}
	c.completeRange(cycle, 0, end-n)
}

// completeRange processes executing entries with slot index in [lo, hi).
// Returns false when a branch recovery squashed younger entries (the
// executing set was rebuilt; iteration must stop).
func (c *Core) completeRange(cycle uint64, lo, hi int) bool {
	for w := lo >> 6; w <= (hi-1)>>6; w++ {
		word := c.execMask[w] & rangeMask(w, lo, hi)
		for word != 0 {
			b := bits.TrailingZeros64(word)
			word &^= 1 << uint(b)
			idx := w<<6 | b
			e := &c.rob[idx]
			if r := e.req; r != nil {
				if r.Done && r.DoneCycle <= cycle {
					r.Release()
					e.req = nil
					e.state = stDone
					maskClear(c.execMask, idx)
					c.broadcast(idx, e)
				}
				continue
			}
			if e.doneAt > cycle {
				continue
			}
			e.state = stDone
			maskClear(c.execMask, idx)
			c.broadcast(idx, e)
			if cl := e.inst.Class; cl == isa.ClassBranch || cl == isa.ClassJR {
				if c.resolveControl(cycle, idx, e) {
					return false // recovery squashed everything younger
				}
			}
		}
	}
	return true
}

// broadcast forwards the result of e, the completed entry in slot idx, to
// the consumers chained on its wake-up list.
func (c *Core) broadcast(idx int, e *robEntry) {
	node := e.waitHead
	e.waitHead = -1
	iv, fv := e.ival, e.fval
	for node >= 0 {
		k := int(node >> 1)
		w := &c.rob[k]
		var next int32
		if node&1 == 0 {
			next = w.wNext0
			w.wNext0 = -1
		} else {
			next = w.wNext1
			w.wNext1 = -1
		}
		// Validate the link: the waiter must still be a live dispatched
		// entry waiting on this producer (squash rebuilds chains, so stale
		// links should not occur; this guards the invariant cheaply).
		if w.state == stDispatched && c.posOf(k) < c.robCount {
			f := w.flags
			if node&1 == 0 {
				if f&(fUse1|fS1Rdy) == fUse1 && int(w.s1rob) == idx {
					w.flags = f | fS1Rdy
					w.s1i, w.s1f = iv, fv
					if ready(w.flags) {
						maskSet(c.readyMask, k)
					}
				}
			} else {
				if f&(fUse2|fS2Rdy) == fUse2 && int(w.s2rob) == idx {
					w.flags = f | fS2Rdy
					w.s2i, w.s2f = iv, fv
					if ready(w.flags) {
						maskSet(c.readyMask, k)
					}
				}
			}
		}
		node = next
	}
}

// resolveControl checks e, a completed branch or indirect jump in slot idx,
// against its prediction, training the predictor and recovering on a
// mismatch. Returns true when recovery squashed younger entries.
func (c *Core) resolveControl(cycle uint64, idx int, e *robEntry) bool {
	u := &e.inst
	jr := u.Class == isa.ClassJR
	var taken bool
	var target int
	if jr {
		taken = true
		target = int(e.s1i)
	} else {
		taken = isa.BranchTakenOp(u.Op, e.s1i, e.s2i)
		target = int(u.Imm)
	}
	if taken {
		e.bflags |= bTaken
	}
	pc := int(e.pc)
	actualNext := pc + 1
	if taken {
		actualNext = target
	}
	predNext := pc + 1
	if e.bflags&bPredTaken != 0 {
		predNext = int(e.predTarget)
	}
	if actualNext == predNext {
		return false
	}
	e.bflags |= bMispredict
	if jr {
		// Indirect-jump mispredicts are rare; count them at resolution.
		c.Stats.Mispredicts++
	}
	c.recover(cycle, c.posOf(idx), actualNext)
	return true
}

// recover squashes all entries younger than the entry at agePos, extracts
// ready wrong-path loads into the wrong queue (wp configurations), rebuilds
// the rename maps, occupancy bitmaps, and wake-up chains, and redirects
// fetch.
func (c *Core) recover(cycle uint64, agePos, nextPC int) {
	for p := agePos + 1; p < c.robCount; p++ {
		e := &c.rob[c.slotAt(p)]
		c.Stats.SquashedInsts++
		if e.req != nil {
			e.req.Release()
			e.req = nil
		}
		if c.cfg.WrongPathExec && e.inst.Class == isa.ClassLoad && e.flags&fMemIssued == 0 {
			// Compute the effective address if its operand is ready: these
			// are the "ready" wrong-path loads of Figure 3 that continue to
			// memory; address-unknown loads squash outright.
			if e.flags&(fAddrKnown|fS1Rdy) == fS1Rdy {
				e.addr = uint64(e.s1i + e.inst.Imm)
				e.flags |= fAddrKnown
			}
			if e.flags&fAddrKnown != 0 && c.wrongLen() < c.cfg.LSQSize {
				c.wrongQ = append(c.wrongQ, wrongLoad{addr: e.addr, pc: int(e.pc)})
			}
		}
	}
	// Drop squashed entries.
	newCount := agePos + 1
	c.robTail = c.slotAt(newCount)
	// Truncate the LSQ: survivors are a program-order prefix of the ring.
	kept := 0
	for j := c.lsqHead; kept < c.lsqCount; kept++ {
		if c.posOf(c.lsqBuf[j]) >= newCount {
			break
		}
		if j++; j == len(c.lsqBuf) {
			j = 0
		}
	}
	c.lsqCount = kept
	c.robCount = newCount
	// Rebuild rename maps, bitmaps, and wake-up chains from the surviving
	// entries, oldest to youngest.
	for i := range c.renameInt {
		c.renameInt[i] = -1
	}
	for i := range c.renameFP {
		c.renameFP[i] = -1
	}
	for i := range c.readyMask {
		c.readyMask[i] = 0
		c.execMask[i] = 0
	}
	for p := 0; p < c.robCount; p++ {
		e := &c.rob[c.slotAt(p)]
		e.waitHead = -1
		e.parkHead = -1 // parked loads rejoin the ready set below
	}
	for p := 0; p < c.robCount; p++ {
		idx := c.slotAt(p)
		e := &c.rob[idx]
		if u := &e.inst; u.Flags&isa.UDest != 0 {
			if u.Flags&isa.UFPDest != 0 {
				c.renameFP[u.Rd] = idx
			} else {
				c.renameInt[u.Rd] = idx
			}
		}
		switch e.state {
		case stDispatched:
			e.wNext0, e.wNext1 = -1, -1
			c.addWaiters(idx, e)
			if ready(e.flags) {
				maskSet(c.readyMask, idx)
			}
		case stExecuting:
			maskSet(c.execMask, idx)
		}
	}
	c.fetchPC = nextPC
	c.fetchStopped = false
	c.redirectStall = RedirectPenalty
}

// issue starts execution of ready entries in age order, bounded by issue
// width and functional-unit availability. Only entries in the ready set are
// visited.
func (c *Core) issue(cycle uint64) {
	if c.robCount == 0 {
		return
	}
	issued := 0
	n := c.cfg.ROBSize
	end := c.robHead + c.robCount
	if end <= n {
		c.issueRange(cycle, c.robHead, end, &issued)
		return
	}
	c.issueRange(cycle, c.robHead, n, &issued)
	if issued < c.cfg.IssueWidth {
		c.issueRange(cycle, 0, end-n, &issued)
	}
}

// issueRange attempts issue for ready entries with slot index in [lo, hi).
func (c *Core) issueRange(cycle uint64, lo, hi int, issued *int) {
	for w := lo >> 6; w <= (hi-1)>>6 && *issued < c.cfg.IssueWidth; w++ {
		word := c.readyMask[w] & rangeMask(w, lo, hi)
		for word != 0 && *issued < c.cfg.IssueWidth {
			b := bits.TrailingZeros64(word)
			word &^= 1 << uint(b)
			idx := w<<6 | b
			e := &c.rob[idx]
			u := &e.inst
			switch u.Class {
			case isa.ClassLoad:
				if c.issueLoad(cycle, idx, e) {
					maskClear(c.readyMask, idx)
					maskSet(c.execMask, idx)
					*issued++
				}
			case isa.ClassStore:
				// Stores compute address and data; the cache access happens
				// at commit (sequential mode) or write-back drain (parallel
				// mode).
				e.addr = uint64(e.s1i + u.Imm)
				if u.Flags&isa.UFP2 != 0 { // FST: the data register is FP
					e.storeBits = int64(math.Float64bits(e.s2f))
				} else {
					e.storeBits = e.s2i
				}
				e.flags |= fAddrKnown | fValKnown
				e.state = stExecuting
				e.doneAt = cycle + 1
				maskClear(c.readyMask, idx)
				maskSet(c.execMask, idx)
				*issued++
				if e.parkHead >= 0 {
					// Loads parked on this store are younger, so they still
					// get their attempt in this pass, as an unparked retry
					// would: re-arm them and reload the word.
					c.unpark(e)
					word = c.readyMask[w] & rangeMask(w, lo, hi) &^ (2<<uint(b) - 1)
				}
			default:
				if c.fuUsed[u.FU] >= c.fuLimit[u.FU] {
					continue
				}
				c.fuUsed[u.FU]++
				c.execALU(cycle, e)
				maskClear(c.readyMask, idx)
				maskSet(c.execMask, idx)
				*issued++
			}
		}
	}
}

// execALU computes a non-memory result, visible after the op latency.
// Branches and JR produce no register result (their outcome is resolved
// from the operands at completion), so only ALU ops and JAL write one.
func (c *Core) execALU(cycle uint64, e *robEntry) {
	u := &e.inst
	switch {
	case u.Class == isa.ClassALU:
		e.ival, e.fval = isa.EvalOp(u.Op, u.Imm, e.s1i, e.s2i, e.s1f, e.s2f)
	case u.Op == isa.JAL:
		e.ival = int64(int(e.pc) + 1)
	}
	e.state = stExecuting
	e.doneAt = cycle + uint64(u.Lat)
}

// issueLoad attempts to start e, the load in slot idx: memory ordering
// against older stores, store-to-load forwarding, then the DMem (memory
// buffer + caches).
func (c *Core) issueLoad(cycle uint64, idx int, e *robEntry) bool {
	if e.flags&fAddrKnown == 0 {
		e.addr = uint64(e.s1i + e.inst.Imm)
		e.flags |= fAddrKnown
	}
	addr := e.addr
	// Conservative disambiguation: every older store must have a known
	// address; the nearest older same-address store forwards its data.
	var fwd *robEntry
	j := c.lsqHead
	for i := 0; i < c.lsqCount; i++ {
		s := c.lsqBuf[j]
		j++
		if j == len(c.lsqBuf) {
			j = 0
		}
		if s == idx {
			break
		}
		st := &c.rob[s]
		if st.inst.Class != isa.ClassStore {
			continue
		}
		if st.flags&fAddrKnown == 0 {
			// Unresolved older store address: park on that store until
			// it issues instead of retrying every cycle.
			e.parkNext = st.parkHead
			st.parkHead = int32(idx)
			maskClear(c.readyMask, idx)
			return false
		}
		if st.addr == addr {
			fwd = st
		}
	}
	if fwd != nil {
		if fwd.flags&fValKnown == 0 {
			return false // data not ready yet
		}
		e.finishLoad(fwd.storeBits, cycle+1)
		return true
	}
	if !c.dmem.LoadsAllowed() {
		return false
	}
	res := c.dmem.TryLoad(cycle, addr, c.wrongMode, int(e.pc))
	switch res.Status {
	case LoadStall, LoadNoPort:
		return false
	case LoadForwarded:
		e.finishLoad(res.Value, cycle+1)
		return true
	default: // LoadIssued
		e.req = res.Req
		e.setLoadValue(res.Value)
		e.state = stExecuting
		e.flags |= fMemIssued
		return true
	}
}

// unpark returns every load parked on store st to the ready set.
func (c *Core) unpark(st *robEntry) {
	for k := st.parkHead; k >= 0; k = c.rob[k].parkNext {
		maskSet(c.readyMask, int(k))
	}
	st.parkHead = -1
}

// finishLoad completes a load whose value is known now (forwarded from a
// store or the memory buffer), visible at doneAt.
func (e *robEntry) finishLoad(bits int64, doneAt uint64) {
	e.setLoadValue(bits)
	e.state = stExecuting
	e.doneAt = doneAt
	e.flags |= fMemIssued
}

func (e *robEntry) setLoadValue(bits int64) {
	if e.inst.Flags&isa.UFPDest != 0 { // FLD
		e.fval = math.Float64frombits(uint64(bits))
	} else {
		e.ival = bits
	}
}

// drainWrongQ keeps issuing extracted wrong-path loads to the memory system
// as ports allow; correct-path demand accesses already had priority this
// cycle (issue runs first).
func (c *Core) drainWrongQ(cycle uint64) {
	for c.wrongHead < len(c.wrongQ) {
		w := &c.wrongQ[c.wrongHead]
		if !c.dmem.WrongLoad(cycle, w.addr, w.pc) {
			return
		}
		c.Stats.WrongPathLoadsIssued++
		c.wrongHead++
	}
	c.wrongQ, c.wrongHead = c.wrongQ[:0], 0
}

// fetch brings new instructions into the ROB: up to IssueWidth per cycle,
// stopping at thread-ending instructions, I-cache misses, or full ROB/LSQ.
func (c *Core) fetch(cycle uint64) {
	if !c.running || c.fetchStopped {
		return
	}
	if c.redirectStall > 0 {
		c.redirectStall--
		return
	}
	for n := 0; n < c.cfg.IssueWidth; n++ {
		if c.robCount >= c.cfg.ROBSize {
			return
		}
		u := c.fetchUop()
		if u.Flags&isa.UMem != 0 && c.lsqCount >= c.cfg.LSQSize {
			return
		}
		if !c.imem.FetchReady(cycle, c.fetchPC) {
			c.Stats.FetchStallICache++
			return
		}
		c.dispatch(cycle, u)
		if u.Class != isa.ClassMarker {
			continue
		}
		if u.Op == isa.HALT {
			c.fetchStopped = true
			return
		}
		if !c.cfg.SeqLoops && (u.Op == isa.THEND || u.Op == isa.ABORT) {
			// ABORT transfers control out of the loop body; the thread
			// resumes (or dies) under sta control after commit.
			c.fetchStopped = true
			return
		}
	}
}

// dispatch decodes one instruction into the ROB tail, reading or renaming
// its operands and predicting control flow.
func (c *Core) dispatch(cycle uint64, u *isa.Uop) {
	idx := c.robTail
	if c.robTail++; c.robTail == c.cfg.ROBSize {
		c.robTail = 0
	}
	c.robCount++
	e := &c.rob[idx]
	e.inst = *u
	e.pc = int32(c.fetchPC)
	e.state = stDispatched
	e.flags = 0
	e.bflags = 0
	e.waitHead = -1
	e.wNext0, e.wNext1 = -1, -1
	e.parkHead = -1
	maskClear(c.readyMask, idx)
	maskClear(c.execMask, idx)

	uf := u.Flags
	if uf&isa.UUse1 != 0 {
		e.flags |= fUse1
		c.readOperand(e, 0, u.Rs1, uf&isa.UFP1 != 0)
	}
	if uf&isa.UUse2 != 0 {
		e.flags |= fUse2
		c.readOperand(e, 1, u.Rs2, uf&isa.UFP2 != 0)
	}
	if c.loadToUse != nil {
		c.observeLoadUse(idx, e)
	}

	// Markers with no execution latency complete immediately at dispatch+1.
	if u.Class == isa.ClassMarker {
		e.state = stExecuting
		e.doneAt = cycle + 1
		maskSet(c.execMask, idx)
	} else {
		c.addWaiters(idx, e)
		if ready(e.flags) {
			maskSet(c.readyMask, idx)
		}
	}

	if uf&isa.UMem != 0 {
		j := c.lsqHead + c.lsqCount
		if j >= len(c.lsqBuf) {
			j -= len(c.lsqBuf)
		}
		c.lsqBuf[j] = idx
		c.lsqCount++
	}

	// Rename the destination.
	if uf&isa.UDest != 0 {
		if uf&isa.UFPDest != 0 {
			c.renameFP[u.Rd] = idx
		} else {
			c.renameInt[u.Rd] = idx
		}
	}

	// Control flow prediction.
	next := c.fetchPC + 1
	switch u.Class {
	case isa.ClassMarker:
		if !c.cfg.SeqLoops {
			break
		}
		switch u.Op {
		case isa.FORK:
			c.seqForkTarget = int(u.Imm)
		case isa.THEND:
			// Sequential semantics: the next iteration begins at the fork
			// target (matches the functional interpreter).
			next = c.seqForkTarget
		}
	case isa.ClassJump:
		if u.Op == isa.JAL {
			c.bp.PushRAS(c.fetchPC + 1)
		}
		next = int(u.Imm)
	case isa.ClassJR:
		if tgt, ok := c.bp.PopRAS(); ok {
			e.bflags |= bPredTaken
			e.predTarget = int32(tgt)
			next = tgt
		} else {
			e.predTarget = int32(c.fetchPC + 1)
		}
	case isa.ClassBranch:
		e.predTarget = int32(u.Imm)
		if c.bp.PredictDirection(c.fetchPC) {
			e.bflags |= bPredTaken
			next = int(e.predTarget)
		}
	}
	c.fetchPC = next
}

// observeLoadUse reports, for each source operand of e (in slot idx) still
// waiting on an in-flight load, the program-order distance (in
// instructions) from that load to this consumer — the window the memory
// system has to hide the load's latency. Called only when a load-to-use
// histogram is attached.
func (c *Core) observeLoadUse(idx int, e *robEntry) {
	f := e.flags
	if f&(fUse1|fS1Rdy) == fUse1 && c.rob[e.s1rob].inst.Class == isa.ClassLoad {
		c.loadToUse.Observe(uint64(c.posOf(idx) - c.posOf(int(e.s1rob))))
	}
	if f&(fUse2|fS2Rdy) == fUse2 && c.rob[e.s2rob].inst.Class == isa.ClassLoad {
		c.loadToUse.Observe(uint64(c.posOf(idx) - c.posOf(int(e.s2rob))))
	}
}

// readOperand resolves source register r into operand op (0 or 1) of e: a
// ready value, or a link to the producer's ROB slot plus a pending wake-up
// registration (done by dispatch after both operands resolve).
func (c *Core) readOperand(e *robEntry, op int, r uint8, fp bool) {
	prod := -1
	rdy := false
	var iv int64
	var fv float64
	if fp {
		if prod = c.renameFP[r]; prod < 0 {
			rdy, fv = true, c.FPRegs[r]
		}
	} else if r == 0 {
		rdy = true
	} else if prod = c.renameInt[r]; prod < 0 {
		rdy, iv = true, c.IntRegs[r]
	}
	if prod >= 0 {
		if p := &c.rob[prod]; p.state == stDone {
			rdy, iv, fv = true, p.ival, p.fval
		}
	}
	if op == 0 {
		if rdy {
			e.flags |= fS1Rdy
			e.s1i, e.s1f = iv, fv
		} else {
			e.s1rob = int32(prod)
		}
	} else {
		if rdy {
			e.flags |= fS2Rdy
			e.s2i, e.s2f = iv, fv
		} else {
			e.s2rob = int32(prod)
		}
	}
}
