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
	if !c.running && c.robCount == 0 && len(c.wrongQ) == 0 {
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
	if !c.running && c.robCount == 0 && len(c.wrongQ) == 0 {
		return neverWake
	}
	if len(c.wrongQ) > 0 {
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
	if c.robCount > 0 && c.rob.state[c.robHead] == stDone {
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
			idx := wi<<6 | b
			if r := c.rob.req[idx]; r != nil {
				if r.Done && r.DoneCycle < wake {
					wake = r.DoneCycle
				}
				continue
			}
			if c.rob.doneAt[idx] < wake {
				wake = c.rob.doneAt[idx]
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

// entryReady reports whether a dispatched entry has all operands ready:
// neither used operand may still be unresolved.
func (c *Core) entryReady(idx int) bool {
	f := c.rob.flags[idx]
	return f&(fUse1|fS1Rdy) != fUse1 && f&(fUse2|fS2Rdy) != fUse2
}

// addWaiter links waiter slot's operand op onto producer prod's wake-up
// chain. Node encoding: slot*2 + op.
func (c *Core) addWaiter(prod, slot, op int) {
	if op == 0 {
		c.rob.wNext0[slot] = c.rob.waitHead[prod]
	} else {
		c.rob.wNext1[slot] = c.rob.waitHead[prod]
	}
	c.rob.waitHead[prod] = int32(slot<<1 | op)
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
		if c.rob.state[idx] != stDone {
			return
		}
		u := &c.rob.inst[idx]
		// Architectural register writeback.
		if u.Flags&isa.UDest != 0 {
			if u.Flags&isa.UFPDest != 0 {
				c.FPRegs[u.Rd] = c.rob.fval[idx]
				if c.renameFP[u.Rd] == idx {
					c.renameFP[u.Rd] = -1
				}
			} else {
				c.IntRegs[u.Rd] = c.rob.ival[idx]
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
			c.dmem.CommitStore(cycle, c.rob.addr[idx], c.rob.storeBits[idx], u.Op == isa.TST, int(c.rob.pc[idx]))
			c.popLSQ(idx)
		case isa.ClassBranch:
			c.Stats.Branches++
			bf := c.rob.bflags[idx]
			// Train the direction predictor at commit so wrong-path
			// branches never pollute it; count only committed mispredicts.
			c.bp.UpdateDirection(int(c.rob.pc[idx]), bf&bTaken != 0, bf&bPredTaken != 0)
			if bf&bMispredict != 0 {
				c.Stats.Mispredicts++
			}
		case isa.ClassALU:
			if u.Op == isa.TSA {
				c.env.OnTsa(cycle, uint64(c.rob.ival[idx]))
			}
		case isa.ClassMarker:
			if c.commitMarker(cycle, idx, u) {
				return
			}
		}
		c.retireROBHead()
	}
}

// commitMarker applies a committing marker's superthreaded control event.
// It returns true when the marker ended the thread: the head is then
// already retired and the pipeline squashed.
func (c *Core) commitMarker(cycle uint64, idx int, u *isa.Uop) bool {
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
		resume := int(c.rob.pc[idx]) + 1
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
			if r := c.rob.req[idx]; r != nil {
				if r.Done && r.DoneCycle <= cycle {
					r.Release()
					c.rob.req[idx] = nil
					c.rob.state[idx] = stDone
					maskClear(c.execMask, idx)
					c.broadcast(idx)
				}
				continue
			}
			if c.rob.doneAt[idx] > cycle {
				continue
			}
			c.rob.state[idx] = stDone
			maskClear(c.execMask, idx)
			c.broadcast(idx)
			if cl := c.rob.inst[idx].Class; cl == isa.ClassBranch || cl == isa.ClassJR {
				if c.resolveControl(cycle, idx, c.posOf(idx)) {
					return false // recovery squashed everything younger
				}
			}
		}
	}
	return true
}

// broadcast forwards a completed entry's result to the consumers chained on
// its wake-up list.
func (c *Core) broadcast(idx int) {
	node := c.rob.waitHead[idx]
	c.rob.waitHead[idx] = -1
	iv, fv := c.rob.ival[idx], c.rob.fval[idx]
	for node >= 0 {
		k := int(node >> 1)
		op := int(node & 1)
		var next int32
		if op == 0 {
			next = c.rob.wNext0[k]
			c.rob.wNext0[k] = -1
		} else {
			next = c.rob.wNext1[k]
			c.rob.wNext1[k] = -1
		}
		// Validate the link: the waiter must still be a live dispatched
		// entry waiting on this producer (squash rebuilds chains, so stale
		// links should not occur; this guards the invariant cheaply).
		if c.rob.state[k] == stDispatched && c.posOf(k) < c.robCount {
			f := c.rob.flags[k]
			if op == 0 {
				if f&fUse1 != 0 && f&fS1Rdy == 0 && int(c.rob.s1rob[k]) == idx {
					c.rob.flags[k] = f | fS1Rdy
					c.rob.s1i[k] = iv
					c.rob.s1f[k] = fv
					if c.entryReady(k) {
						maskSet(c.readyMask, k)
					}
				}
			} else {
				if f&fUse2 != 0 && f&fS2Rdy == 0 && int(c.rob.s2rob[k]) == idx {
					c.rob.flags[k] = f | fS2Rdy
					c.rob.s2i[k] = iv
					c.rob.s2f[k] = fv
					if c.entryReady(k) {
						maskSet(c.readyMask, k)
					}
				}
			}
		}
		node = next
	}
}

// resolveControl checks a completed branch or indirect jump against its
// prediction, training the predictor and recovering on a mismatch. Returns
// true when recovery squashed younger entries.
func (c *Core) resolveControl(cycle uint64, idx, agePos int) bool {
	u := &c.rob.inst[idx]
	jr := u.Class == isa.ClassJR
	var taken bool
	var target int
	if jr {
		taken = true
		target = int(c.rob.s1i[idx])
	} else {
		taken = isa.BranchTakenOp(u.Op, c.rob.s1i[idx], c.rob.s2i[idx])
		target = int(u.Imm)
	}
	if taken {
		c.rob.bflags[idx] |= bTaken
	}
	pc := int(c.rob.pc[idx])
	actualNext := pc + 1
	if taken {
		actualNext = target
	}
	predNext := pc + 1
	if c.rob.bflags[idx]&bPredTaken != 0 {
		predNext = int(c.rob.predTarget[idx])
	}
	if actualNext == predNext {
		return false
	}
	c.rob.bflags[idx] |= bMispredict
	if jr {
		// Indirect-jump mispredicts are rare; count them at resolution.
		c.Stats.Mispredicts++
	}
	c.recover(cycle, agePos, actualNext)
	return true
}

// recover squashes all entries younger than the entry at agePos, extracts
// ready wrong-path loads into the wrong queue (wp configurations), rebuilds
// the rename maps, occupancy bitmaps, and wake-up chains, and redirects
// fetch.
func (c *Core) recover(cycle uint64, agePos, nextPC int) {
	for p := agePos + 1; p < c.robCount; p++ {
		idx := c.slotAt(p)
		c.Stats.SquashedInsts++
		if r := c.rob.req[idx]; r != nil {
			r.Release()
			c.rob.req[idx] = nil
		}
		if c.cfg.WrongPathExec && c.rob.inst[idx].Class == isa.ClassLoad && c.rob.flags[idx]&fMemIssued == 0 {
			// Compute the effective address if its operand is ready: these
			// are the "ready" wrong-path loads of Figure 3 that continue to
			// memory; address-unknown loads squash outright.
			f := c.rob.flags[idx]
			if f&fAddrKnown == 0 && f&fS1Rdy != 0 {
				c.rob.addr[idx] = uint64(c.rob.s1i[idx] + c.rob.inst[idx].Imm)
				c.rob.flags[idx] = f | fAddrKnown
			}
			if c.rob.flags[idx]&fAddrKnown != 0 && len(c.wrongQ) < c.cfg.LSQSize {
				c.wrongQ = append(c.wrongQ, wrongLoad{addr: c.rob.addr[idx], pc: int(c.rob.pc[idx])})
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
		idx := c.slotAt(p)
		c.rob.waitHead[idx] = -1
		c.rob.parkHead[idx] = -1 // parked loads rejoin the ready set below
	}
	for p := 0; p < c.robCount; p++ {
		idx := c.slotAt(p)
		if u := &c.rob.inst[idx]; u.Flags&isa.UDest != 0 {
			if u.Flags&isa.UFPDest != 0 {
				c.renameFP[u.Rd] = idx
			} else {
				c.renameInt[u.Rd] = idx
			}
		}
		switch c.rob.state[idx] {
		case stDispatched:
			c.rob.wNext0[idx], c.rob.wNext1[idx] = -1, -1
			f := c.rob.flags[idx]
			if f&fUse1 != 0 && f&fS1Rdy == 0 {
				c.addWaiter(int(c.rob.s1rob[idx]), idx, 0)
			}
			if f&fUse2 != 0 && f&fS2Rdy == 0 {
				c.addWaiter(int(c.rob.s2rob[idx]), idx, 1)
			}
			if c.entryReady(idx) {
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
			u := &c.rob.inst[idx]
			switch u.Class {
			case isa.ClassLoad:
				if c.issueLoad(cycle, idx) {
					maskClear(c.readyMask, idx)
					maskSet(c.execMask, idx)
					*issued++
				}
			case isa.ClassStore:
				// Stores compute address and data; the cache access happens
				// at commit (sequential mode) or write-back drain (parallel
				// mode).
				c.rob.addr[idx] = uint64(c.rob.s1i[idx] + u.Imm)
				if u.Flags&isa.UFP2 != 0 { // FST: the data register is FP
					c.rob.storeBits[idx] = int64(math.Float64bits(c.rob.s2f[idx]))
				} else {
					c.rob.storeBits[idx] = c.rob.s2i[idx]
				}
				c.rob.flags[idx] |= fAddrKnown | fValKnown
				c.rob.state[idx] = stExecuting
				c.rob.doneAt[idx] = cycle + 1
				maskClear(c.readyMask, idx)
				maskSet(c.execMask, idx)
				*issued++
				if c.rob.parkHead[idx] >= 0 {
					// Loads parked on this store are younger, so they still
					// get their attempt in this pass, as an unparked retry
					// would: re-arm them and reload the word.
					c.unpark(idx)
					word = c.readyMask[w] & rangeMask(w, lo, hi) &^ (2<<uint(b) - 1)
				}
			default:
				if c.fuUsed[u.FU] >= c.fuLimit[u.FU] {
					continue
				}
				c.fuUsed[u.FU]++
				c.execALU(cycle, idx)
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
func (c *Core) execALU(cycle uint64, idx int) {
	u := &c.rob.inst[idx]
	switch {
	case u.Class == isa.ClassALU:
		c.rob.ival[idx], c.rob.fval[idx] = isa.EvalOp(u.Op, u.Imm,
			c.rob.s1i[idx], c.rob.s2i[idx], c.rob.s1f[idx], c.rob.s2f[idx])
	case u.Op == isa.JAL:
		c.rob.ival[idx] = int64(int(c.rob.pc[idx]) + 1)
	}
	c.rob.state[idx] = stExecuting
	c.rob.doneAt[idx] = cycle + uint64(u.Lat)
}

// issueLoad attempts to start a load: memory ordering against older stores,
// store-to-load forwarding, then the DMem (memory buffer + caches).
func (c *Core) issueLoad(cycle uint64, idx int) bool {
	if c.rob.flags[idx]&fAddrKnown == 0 {
		c.rob.addr[idx] = uint64(c.rob.s1i[idx] + c.rob.inst[idx].Imm)
		c.rob.flags[idx] |= fAddrKnown
	}
	addr := c.rob.addr[idx]
	// Conservative disambiguation: every older store must have a known
	// address; the nearest older same-address store forwards its data.
	fwd := -1
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
		if c.rob.inst[s].Class != isa.ClassStore {
			continue
		}
		if c.rob.flags[s]&fAddrKnown == 0 {
			// Unresolved older store address: park on that store until
			// it issues instead of retrying every cycle.
			c.rob.parkNext[idx] = c.rob.parkHead[s]
			c.rob.parkHead[s] = int32(idx)
			maskClear(c.readyMask, idx)
			return false
		}
		if c.rob.addr[s] == addr {
			fwd = s
		}
	}
	if fwd >= 0 {
		if c.rob.flags[fwd]&fValKnown == 0 {
			return false // data not ready yet
		}
		c.finishLoad(idx, c.rob.storeBits[fwd], cycle+1)
		c.rob.flags[idx] |= fMemIssued
		return true
	}
	if !c.dmem.LoadsAllowed() {
		return false
	}
	res := c.dmem.TryLoad(cycle, addr, c.wrongMode, int(c.rob.pc[idx]))
	switch res.Status {
	case LoadStall, LoadNoPort:
		return false
	case LoadForwarded:
		c.finishLoad(idx, res.Value, cycle+1)
		c.rob.flags[idx] |= fMemIssued
		return true
	default: // LoadIssued
		c.rob.req[idx] = res.Req
		c.finishLoadValue(idx, res.Value)
		c.rob.state[idx] = stExecuting
		c.rob.flags[idx] |= fMemIssued
		return true
	}
}

// unpark returns every load parked on store slot s to the ready set.
func (c *Core) unpark(s int) {
	for k := c.rob.parkHead[s]; k >= 0; k = c.rob.parkNext[k] {
		maskSet(c.readyMask, int(k))
	}
	c.rob.parkHead[s] = -1
}

func (c *Core) finishLoad(idx int, bits int64, doneAt uint64) {
	c.finishLoadValue(idx, bits)
	c.rob.state[idx] = stExecuting
	c.rob.doneAt[idx] = doneAt
}

func (c *Core) finishLoadValue(idx int, bits int64) {
	if c.rob.inst[idx].Flags&isa.UFPDest != 0 { // FLD
		c.rob.fval[idx] = math.Float64frombits(uint64(bits))
	} else {
		c.rob.ival[idx] = bits
	}
}

// drainWrongQ keeps issuing extracted wrong-path loads to the memory system
// as ports allow; correct-path demand accesses already had priority this
// cycle (issue runs first).
func (c *Core) drainWrongQ(cycle uint64) {
	for len(c.wrongQ) > 0 {
		if !c.dmem.WrongLoad(cycle, c.wrongQ[0].addr, c.wrongQ[0].pc) {
			return
		}
		c.Stats.WrongPathLoadsIssued++
		c.wrongQ = c.wrongQ[1:]
	}
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
	c.rob.inst[idx] = *u
	c.rob.pc[idx] = int32(c.fetchPC)
	c.rob.state[idx] = stDispatched
	c.rob.flags[idx] = 0
	c.rob.bflags[idx] = 0
	c.rob.waitHead[idx] = -1
	c.rob.wNext0[idx], c.rob.wNext1[idx] = -1, -1
	c.rob.parkHead[idx] = -1
	maskClear(c.readyMask, idx)
	maskClear(c.execMask, idx)

	uf := u.Flags
	if uf&isa.UUse1 != 0 {
		c.rob.flags[idx] |= fUse1
		c.readOperand(idx, 0, u.Rs1, uf&isa.UFP1 != 0)
	}
	if uf&isa.UUse2 != 0 {
		c.rob.flags[idx] |= fUse2
		c.readOperand(idx, 1, u.Rs2, uf&isa.UFP2 != 0)
	}
	if c.metrics != nil {
		c.observeLoadUse(idx)
	}

	// Markers with no execution latency complete immediately at dispatch+1.
	if u.Class == isa.ClassMarker {
		c.rob.state[idx] = stExecuting
		c.rob.doneAt[idx] = cycle + 1
		maskSet(c.execMask, idx)
	} else {
		f := c.rob.flags[idx]
		if f&fUse1 != 0 && f&fS1Rdy == 0 {
			c.addWaiter(int(c.rob.s1rob[idx]), idx, 0)
		}
		if f&fUse2 != 0 && f&fS2Rdy == 0 {
			c.addWaiter(int(c.rob.s2rob[idx]), idx, 1)
		}
		if c.entryReady(idx) {
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
			c.rob.bflags[idx] |= bPredTaken
			c.rob.predTarget[idx] = int32(tgt)
			next = tgt
		} else {
			c.rob.predTarget[idx] = int32(c.fetchPC + 1)
		}
	case isa.ClassBranch:
		c.rob.predTarget[idx] = int32(u.Imm)
		if c.bp.PredictDirection(c.fetchPC) {
			c.rob.bflags[idx] |= bPredTaken
			next = int(c.rob.predTarget[idx])
		}
	}
	c.fetchPC = next
}

// observeLoadUse reports, for each source operand still waiting on an
// in-flight load, the program-order distance (in instructions) from that
// load to this consumer — the window the memory system has to hide the
// load's latency. Called only when a metrics collector is attached.
func (c *Core) observeLoadUse(idx int) {
	f := c.rob.flags[idx]
	if f&fUse1 != 0 && f&fS1Rdy == 0 && c.rob.inst[c.rob.s1rob[idx]].Class == isa.ClassLoad {
		c.metrics.ObserveLoadUse(uint64(c.posOf(idx) - c.posOf(int(c.rob.s1rob[idx]))))
	}
	if f&fUse2 != 0 && f&fS2Rdy == 0 && c.rob.inst[c.rob.s2rob[idx]].Class == isa.ClassLoad {
		c.metrics.ObserveLoadUse(uint64(c.posOf(idx) - c.posOf(int(c.rob.s2rob[idx]))))
	}
}

// readOperand resolves source register r into operand op (0 or 1) of slot
// idx: a ready value, or a link to the producer's ROB slot plus a pending
// wake-up registration (done by dispatch after both operands resolve).
func (c *Core) readOperand(idx, op int, r uint8, fp bool) {
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
	if prod >= 0 && c.rob.state[prod] == stDone {
		rdy, iv, fv = true, c.rob.ival[prod], c.rob.fval[prod]
	}
	if op == 0 {
		if rdy {
			c.rob.flags[idx] |= fS1Rdy
			c.rob.s1i[idx] = iv
			c.rob.s1f[idx] = fv
		} else {
			c.rob.s1rob[idx] = int32(prod)
		}
	} else {
		if rdy {
			c.rob.flags[idx] |= fS2Rdy
			c.rob.s2i[idx] = iv
			c.rob.s2f[idx] = fv
		} else {
			c.rob.s2rob[idx] = int32(prod)
		}
	}
}
