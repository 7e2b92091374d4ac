package mem

// Functional cache warming for sampled simulation. Between detailed
// measurement windows the machine fast-forwards on the functional
// interpreter; these entry points replay the fast-forwarded memory
// references into the tag arrays — L1, side buffer, and the shared L2 — so
// each window starts from the cache state a detailed run would have built.
//
// Warming is deliberately invisible to everything the detailed simulator
// reports: no statistics counters, no MSHRs, no latency, no metrics or
// attribution events, no port arbitration. Blocks land instantly (perfect
// memory), which is the standard SMARTS-style functional-warming
// approximation; the per-window detailed warmup on top of it absorbs the
// residual state error.
//
// Flush contract: WarmSequentialStore defers the sequential-mode refresh
// of the other TUs' L1 copies. It records each distinct stored block, and
// FlushWarmStores applies the refreshes. The deferral is exact while the
// other TUs' L1 residency cannot change, which holds for a whole
// fast-forward leg: every other TU is idle with a quiet core, no warming
// entry point touches another TU's L1, and nothing invalidates an L1 line
// from below. A refresh only sets the dirty bit of a resident line (no LRU
// or flag change), so applying it once per block at the end of the leg
// leaves every L1 exactly as refreshing on every store would. Callers must
// therefore flush before anything else touches the hierarchy: the sampled
// machine flushes on every exit from a fast-forward leg.

// WarmLoad replays one fast-forwarded load into the tag arrays.
func (d *DUnit) WarmLoad(addr uint64) {
	addr &= PhysMask
	block := d.l1.BlockAddr(addr)
	if d.l1.Touch(block) {
		return
	}
	if d.side != nil && d.side.Touch(block) {
		// Promote like a demand side-buffer hit: the block swaps into L1.
		d.side.Remove(block)
		d.warmInsertL1(block, false)
		return
	}
	d.h.WarmL2(block)
	d.warmInsertL1(block, false)
}

// WarmStore replays one fast-forwarded store into the tag arrays.
func (d *DUnit) WarmStore(addr uint64) {
	addr &= PhysMask
	block := d.l1.BlockAddr(addr)
	if d.l1.Touch(block) {
		d.l1.SetDirty(block)
		return
	}
	if d.side != nil && d.side.Touch(block) {
		d.side.Remove(block)
		d.warmInsertL1(block, true)
		return
	}
	d.h.WarmL2(block)
	d.warmInsertL1(block, true)
}

// warmInsertL1 fills block into L1, routing the victim the way a demand
// fill would: captured by the side buffer when the configuration keeps
// victims, written back to the L2 when dirty otherwise.
func (d *DUnit) warmInsertL1(block uint64, dirty bool) {
	victim := d.l1.Insert(block, 0, dirty)
	if !victim.Valid {
		return
	}
	if d.sideTakesVictims() {
		sv := d.side.Insert(victim.Addr, victim.Flags, victim.Dirty)
		if sv.Valid && sv.Dirty {
			d.h.warmWriteback(sv.Addr)
		}
		return
	}
	if victim.Dirty {
		d.h.warmWriteback(victim.Addr)
	}
}

// WarmFetch replays one fast-forwarded instruction-block reference into
// the I-cache (pc granularity; callers typically invoke it once per block
// crossing, not per instruction).
func (iu *IUnit) WarmFetch(pc int) {
	iu.lastHit = noBlock
	addr := instAddr(pc)
	block := iu.l1i.BlockAddr(addr)
	if iu.l1i.Touch(block) {
		return
	}
	iu.h.WarmL2(block)
	iu.l1i.Insert(block, 0, false)
}

// WarmL2 touches or fills a block in the shared L2.
func (h *Hierarchy) WarmL2(block uint64) {
	l2block := h.l2.BlockAddr(block)
	if h.l2.Touch(l2block) {
		return
	}
	h.l2.Insert(l2block, 0, false)
}

// warmWriteback lands a dirty L1/side victim in the L2 without traffic
// accounting.
func (h *Hierarchy) warmWriteback(block uint64) {
	h.l2.Insert(h.l2.BlockAddr(block), 0, true)
}

// WarmSequentialStore replays a fast-forwarded store executed in
// sequential mode: the issuing TU's caches take the store at once, and
// every other TU's resident copy is owed a refresh (the §3.2.2 update
// protocol, minus the bus statistics). The refresh is recorded, not
// applied: FlushWarmStores applies it, and must run before anything but
// srcTU's warming touches the hierarchy (see the flush contract above). A
// store from another TU while refreshes are pending is such a contract
// violation and panics.
func (h *Hierarchy) WarmSequentialStore(srcTU int, addr uint64) {
	d := &h.dunits[srcTU]
	d.WarmStore(addr)
	if len(h.dunits) == 1 {
		return
	}
	if srcTU != h.warmSrc {
		if len(h.warmBlocks.list) != 0 {
			panic("mem: WarmSequentialStore from a new thread unit before FlushWarmStores")
		}
		h.warmSrc = srcTU
	}
	if h.warmBlocks.add(d.l1.BlockAddr(addr)) {
		// A full set is flushed early, which is as exact as flushing at the
		// end of the leg, so the set never grows past its first allocation.
		h.FlushWarmStores()
	}
}

// FlushWarmStores applies the peer refreshes WarmSequentialStore recorded:
// each distinct block is marked dirty in every other TU's L1 that holds
// it. It is a no-op when nothing is pending.
func (h *Hierarchy) FlushWarmStores() {
	blocks := h.warmBlocks.list
	if len(blocks) == 0 {
		return
	}
	for tu := range h.dunits {
		if tu == h.warmSrc {
			continue
		}
		l1 := h.dunits[tu].l1
		for _, b := range blocks {
			l1.SetDirty(b)
		}
	}
	h.warmBlocks.reset()
}

// PendingWarmStores reports how many distinct blocks' peer refreshes are
// recorded and not yet flushed.
func (h *Hierarchy) PendingWarmStores() int { return len(h.warmBlocks.list) }

// blockSet is a set of block addresses: an open-addressed table of block+1
// (zero marks a free slot) beside the list of members. Blocks are aligned, so block+1 never wraps to zero.
type blockSet struct {
	slots []uint64
	list  []uint64
}

// blockSetBits sizes the table; it holds at most half as many blocks. A
// fast-forward leg of the figure workloads stores to fewer than 256
// distinct blocks, so an early flush is rare.
const blockSetBits = 10

// add inserts block and reports whether the set is now full.
func (s *blockSet) add(block uint64) (full bool) {
	if s.slots == nil {
		s.slots = make([]uint64, 1<<blockSetBits)
		s.list = make([]uint64, 0, 1<<(blockSetBits-1))
	}
	mask := uint64(len(s.slots) - 1)
	key := block + 1
	for i := (block * 0x9E3779B97F4A7C15) >> (64 - blockSetBits); ; i = (i + 1) & mask {
		switch s.slots[i] {
		case key:
			return false
		case 0:
			s.slots[i] = key
			s.list = append(s.list, block)
			return len(s.list) == cap(s.list)
		}
	}
}

func (s *blockSet) reset() {
	clear(s.slots)
	s.list = s.list[:0]
}
