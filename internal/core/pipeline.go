package core

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/chaos"
	"repro/internal/isa"
)

// TraceBranches, when positive, prints that many committed branches (debug).
var TraceBranches int

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
		if c.robCount < c.cfg.ROBSize {
			in := c.prog.At(c.fetchPC)
			if !(in.Op.IsMem() && c.lsqCount >= c.cfg.LSQSize) {
				return cycle + 1
			}
		}
	}
	if c.robCount > 0 && c.rob.state[c.robHead] == stDone {
		return cycle + 1 // commit can retire
	}
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

func (c *Core) slotAt(agePos int) int {
	return (c.robHead + agePos) % c.cfg.ROBSize
}

// posOf is the age position of a ROB slot (inverse of slotAt).
func (c *Core) posOf(slot int) int {
	return (slot - c.robHead + c.cfg.ROBSize) % c.cfg.ROBSize
}

// commit retires up to IssueWidth done entries from the ROB head, applying
// architectural effects in program order.
func (c *Core) commit(cycle uint64) {
	for n := 0; n < c.cfg.IssueWidth && c.robCount > 0; n++ {
		idx := c.robHead
		if c.rob.state[idx] != stDone {
			return
		}
		in := c.rob.inst[idx]
		// Architectural register writeback.
		if in.HasDest() {
			if in.Op.FPDest() {
				c.FPRegs[in.Rd] = c.rob.fval[idx]
				if c.renameFP[in.Rd] == idx {
					c.renameFP[in.Rd] = -1
				}
			} else {
				c.IntRegs[in.Rd] = c.rob.ival[idx]
				if c.renameInt[in.Rd] == idx {
					c.renameInt[in.Rd] = -1
				}
			}
		}
		if c.wrongMode {
			c.Stats.WrongCommits++
		} else {
			c.Stats.Commits++
		}
		switch in.Op {
		case isa.LD, isa.FLD:
			c.Stats.Loads++
			c.popLSQ(idx)
		case isa.ST, isa.FST:
			c.Stats.Stores++
			c.dmem.CommitStore(cycle, c.rob.addr[idx], c.rob.storeBits[idx], false, int(c.rob.pc[idx]))
			c.popLSQ(idx)
		case isa.TST:
			c.Stats.Stores++
			c.dmem.CommitStore(cycle, c.rob.addr[idx], c.rob.storeBits[idx], true, int(c.rob.pc[idx]))
			c.popLSQ(idx)
		case isa.BEQ, isa.BNE, isa.BLT, isa.BGE, isa.BLTU, isa.BGEU:
			c.Stats.Branches++
			bf := c.rob.bflags[idx]
			if TraceBranches > 0 {
				TraceBranches--
				fmt.Printf("commit br pc=%d pred=%v taken=%v mispred=%v\n",
					c.rob.pc[idx], bf&bPredTaken != 0, bf&bTaken != 0, bf&bMispredict != 0)
			}
			// Train the direction predictor at commit so wrong-path
			// branches never pollute it; count only committed mispredicts.
			c.bp.UpdateDirection(int(c.rob.pc[idx]), bf&bTaken != 0, bf&bPredTaken != 0)
			if bf&bMispredict != 0 {
				c.Stats.Mispredicts++
			}
		case isa.BEGIN:
			c.env.OnBegin(cycle, in.Imm)
		case isa.FORK:
			c.env.OnFork(cycle, int(in.Imm))
		case isa.TSAGD:
			c.env.OnTsagd(cycle)
		case isa.TSA:
			c.env.OnTsa(cycle, uint64(c.rob.ival[idx]))
		case isa.THEND:
			if c.cfg.SeqLoops {
				c.env.OnThend(cycle)
				break
			}
			c.retireROBHead()
			c.running = false
			c.squashAll()
			c.env.OnThend(cycle)
			return
		case isa.ABORT:
			if c.cfg.SeqLoops {
				c.env.OnAbort(cycle, int(c.rob.pc[idx])+1)
				break
			}
			resume := int(c.rob.pc[idx]) + 1
			c.retireROBHead()
			c.running = false
			c.squashAll()
			c.env.OnAbort(cycle, resume)
			return
		case isa.HALT:
			c.retireROBHead()
			c.running = false
			c.squashAll()
			c.env.OnHalt(cycle)
			return
		}
		c.retireROBHead()
	}
}

func (c *Core) retireROBHead() {
	c.robHead = (c.robHead + 1) % c.cfg.ROBSize
	c.robCount--
}

// popLSQ removes a committing memory op from the LSQ. Commit proceeds in
// program order and the LSQ is kept in program order, so the committing op
// is always the ring front; the scan below is a defensive fallback only.
func (c *Core) popLSQ(idx int) {
	if c.lsqCount > 0 && c.lsqBuf[c.lsqHead] == idx {
		c.lsqHead++
		if c.lsqHead == len(c.lsqBuf) {
			c.lsqHead = 0
		}
		c.lsqCount--
		return
	}
	for i := 0; i < c.lsqCount; i++ {
		j := (c.lsqHead + i) % len(c.lsqBuf)
		if c.lsqBuf[j] != idx {
			continue
		}
		// Shift later entries forward one position, preserving age order.
		for k := i; k < c.lsqCount-1; k++ {
			from := (c.lsqHead + k + 1) % len(c.lsqBuf)
			to := (c.lsqHead + k) % len(c.lsqBuf)
			c.lsqBuf[to] = c.lsqBuf[from]
		}
		c.lsqCount--
		return
	}
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
		word := c.execMask[w]
		if w == lo>>6 {
			word &^= (1 << (uint(lo) & 63)) - 1
		}
		if w == (hi-1)>>6 {
			if top := uint(hi-1)&63 + 1; top < 64 {
				word &= (1 << top) - 1
			}
		}
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
			if op := c.rob.inst[idx].Op; op.IsBranch() || op == isa.JR {
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
	in := c.rob.inst[idx]
	var taken bool
	var target int
	if in.Op == isa.JR {
		taken = true
		target = int(c.rob.s1i[idx])
	} else {
		taken = isa.BranchTaken(in, c.rob.s1i[idx], c.rob.s2i[idx])
		target = int(in.Imm)
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
	if in.Op == isa.JR {
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
		in := c.rob.inst[idx]
		c.Stats.SquashedInsts++
		if r := c.rob.req[idx]; r != nil {
			r.Release()
			c.rob.req[idx] = nil
		}
		if c.cfg.WrongPathExec && in.Op.IsLoad() && c.rob.flags[idx]&fMemIssued == 0 {
			// Compute the effective address if its operand is ready: these
			// are the "ready" wrong-path loads of Figure 3 that continue to
			// memory; address-unknown loads squash outright.
			f := c.rob.flags[idx]
			if f&fAddrKnown == 0 && f&fS1Rdy != 0 {
				c.rob.addr[idx] = isa.EffAddr(in, c.rob.s1i[idx])
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
	for i := 0; i < c.lsqCount; i++ {
		s := c.lsqBuf[(c.lsqHead+i)%len(c.lsqBuf)]
		if c.posOf(s) >= newCount {
			break
		}
		kept++
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
		c.rob.waitHead[c.slotAt(p)] = -1
	}
	for p := 0; p < c.robCount; p++ {
		idx := c.slotAt(p)
		in := c.rob.inst[idx]
		if in.HasDest() {
			if in.Op.FPDest() {
				c.renameFP[in.Rd] = idx
			} else {
				c.renameInt[in.Rd] = idx
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
		word := c.readyMask[w]
		if w == lo>>6 {
			word &^= (1 << (uint(lo) & 63)) - 1
		}
		if w == (hi-1)>>6 {
			if top := uint(hi-1)&63 + 1; top < 64 {
				word &= (1 << top) - 1
			}
		}
		for word != 0 && *issued < c.cfg.IssueWidth {
			b := bits.TrailingZeros64(word)
			word &^= 1 << uint(b)
			idx := w<<6 | b
			in := c.rob.inst[idx]
			switch {
			case in.Op.IsLoad():
				if c.issueLoad(cycle, idx) {
					maskClear(c.readyMask, idx)
					maskSet(c.execMask, idx)
					*issued++
				}
			case in.Op.IsStore():
				// Stores compute address and data; the cache access happens
				// at commit (sequential mode) or write-back drain (parallel
				// mode).
				c.rob.addr[idx] = isa.EffAddr(in, c.rob.s1i[idx])
				if in.Op == isa.FST {
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
			default:
				fu := in.Op.FU()
				if !c.takeFU(fu) {
					continue
				}
				c.execALU(cycle, idx)
				maskClear(c.readyMask, idx)
				maskSet(c.execMask, idx)
				*issued++
			}
		}
	}
}

func (c *Core) takeFU(fu isa.FUClass) bool {
	var limit int
	switch fu {
	case isa.FUIntALU:
		limit = c.cfg.IntALU
	case isa.FUIntMul:
		limit = c.cfg.IntMul
	case isa.FUFPAdd:
		limit = c.cfg.FPAdd
	case isa.FUFPMul:
		limit = c.cfg.FPMul
	default:
		return true // markers need no FU
	}
	if c.fuUsed[fu] >= limit {
		return false
	}
	c.fuUsed[fu]++
	return true
}

// execALU computes a non-memory result, visible after the op latency.
func (c *Core) execALU(cycle uint64, idx int) {
	in := c.rob.inst[idx]
	switch in.Op {
	case isa.JAL:
		c.rob.ival[idx] = int64(int(c.rob.pc[idx]) + 1)
	case isa.JMP, isa.NOP, isa.HALT, isa.BEGIN, isa.FORK, isa.TSAGD,
		isa.THEND, isa.ABORT:
		// Markers and unconditional jumps carry no data result.
	default:
		c.rob.ival[idx], c.rob.fval[idx] = isa.Eval(in,
			c.rob.s1i[idx], c.rob.s2i[idx], c.rob.s1f[idx], c.rob.s2f[idx])
	}
	c.rob.state[idx] = stExecuting
	c.rob.doneAt[idx] = cycle + uint64(in.Op.Latency())
}

// issueLoad attempts to start a load: memory ordering against older stores,
// store-to-load forwarding, then the DMem (memory buffer + caches).
func (c *Core) issueLoad(cycle uint64, idx int) bool {
	in := c.rob.inst[idx]
	if c.rob.flags[idx]&fAddrKnown == 0 {
		c.rob.addr[idx] = isa.EffAddr(in, c.rob.s1i[idx])
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
		if !c.rob.inst[s].Op.IsStore() {
			continue
		}
		if c.rob.flags[s]&fAddrKnown == 0 {
			return false // wait: unresolved older store address
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

func (c *Core) finishLoad(idx int, bits int64, doneAt uint64) {
	c.finishLoadValue(idx, bits)
	c.rob.state[idx] = stExecuting
	c.rob.doneAt[idx] = doneAt
}

func (c *Core) finishLoadValue(idx int, bits int64) {
	if c.rob.inst[idx].Op == isa.FLD {
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
		in := c.prog.At(c.fetchPC)
		if in.Op.IsMem() && c.lsqCount >= c.cfg.LSQSize {
			return
		}
		if !c.imem.FetchReady(cycle, c.fetchPC) {
			c.Stats.FetchStallICache++
			return
		}
		c.dispatch(cycle, in)
		if in.Op == isa.HALT {
			c.fetchStopped = true
			return
		}
		if !c.cfg.SeqLoops && (in.Op == isa.THEND || in.Op == isa.ABORT) {
			// ABORT transfers control out of the loop body; the thread
			// resumes (or dies) under sta control after commit.
			c.fetchStopped = true
			return
		}
	}
}

// dispatch decodes one instruction into the ROB tail, reading or renaming
// its operands and predicting control flow.
func (c *Core) dispatch(cycle uint64, in isa.Inst) {
	idx := c.robTail
	c.robTail = (c.robTail + 1) % c.cfg.ROBSize
	c.robCount++
	c.rob.inst[idx] = in
	c.rob.pc[idx] = int32(c.fetchPC)
	c.rob.state[idx] = stDispatched
	c.rob.flags[idx] = 0
	c.rob.bflags[idx] = 0
	c.rob.waitHead[idx] = -1
	c.rob.wNext0[idx], c.rob.wNext1[idx] = -1, -1
	maskClear(c.readyMask, idx)
	maskClear(c.execMask, idx)

	r1, r2, use1, use2, fp1, fp2 := in.SrcRegs()
	if use1 {
		c.rob.flags[idx] |= fUse1
		c.readOperand(idx, 0, r1, fp1)
	}
	if use2 {
		c.rob.flags[idx] |= fUse2
		c.readOperand(idx, 1, r2, fp2)
	}
	if c.metrics != nil {
		c.observeLoadUse(idx)
	}

	// Markers with no execution latency complete immediately at dispatch+1.
	switch in.Op {
	case isa.NOP, isa.HALT, isa.BEGIN, isa.FORK, isa.TSAGD, isa.THEND, isa.ABORT:
		c.rob.state[idx] = stExecuting
		c.rob.doneAt[idx] = cycle + 1
	}

	if c.rob.state[idx] == stDispatched {
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
	} else {
		maskSet(c.execMask, idx)
	}

	if in.Op.IsMem() {
		c.lsqBuf[(c.lsqHead+c.lsqCount)%len(c.lsqBuf)] = idx
		c.lsqCount++
	}

	// Rename the destination.
	if in.HasDest() {
		if in.Op.FPDest() {
			c.renameFP[in.Rd] = idx
		} else {
			c.renameInt[in.Rd] = idx
		}
	}

	// Control flow prediction.
	next := c.fetchPC + 1
	switch {
	case in.Op == isa.FORK && c.cfg.SeqLoops:
		c.seqForkTarget = int(in.Imm)
	case in.Op == isa.THEND && c.cfg.SeqLoops:
		// Sequential semantics: the next iteration begins at the fork
		// target (matches the functional interpreter).
		next = c.seqForkTarget
	case in.Op == isa.JMP:
		next = int(in.Imm)
	case in.Op == isa.JAL:
		c.bp.PushRAS(c.fetchPC + 1)
		next = int(in.Imm)
	case in.Op == isa.JR:
		if tgt, ok := c.bp.PopRAS(); ok {
			c.rob.bflags[idx] |= bPredTaken
			c.rob.predTarget[idx] = int32(tgt)
			next = tgt
		} else {
			c.rob.predTarget[idx] = int32(c.fetchPC + 1)
		}
	case in.Op.IsBranch():
		c.rob.predTarget[idx] = int32(in.Imm)
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
	if f&fUse1 != 0 && f&fS1Rdy == 0 && c.rob.inst[c.rob.s1rob[idx]].Op.IsLoad() {
		c.metrics.ObserveLoadUse(uint64(c.posOf(idx) - c.posOf(int(c.rob.s1rob[idx]))))
	}
	if f&fUse2 != 0 && f&fS2Rdy == 0 && c.rob.inst[c.rob.s2rob[idx]].Op.IsLoad() {
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
