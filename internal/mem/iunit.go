package mem

import "repro/internal/cache"

// IUnit is one thread unit's instruction-fetch port: a private L1
// instruction cache backed by the shared L2. Fetch is modeled at block
// granularity: the core asks whether the block containing a PC is resident;
// a miss starts a fill and the core stalls until it lands. One outstanding
// instruction miss per unit, which matches an in-order front end.
//
// Fetch memo: lastHit is the block the last fetch hit, and a fetch of the
// same block answers true without a cache lookup. Fetch is the only reader
// of the L1I, so that block is still the most recent line of its set and
// the skipped LRU refresh changes no replacement order. Every other path
// that touches the L1I (fill, WarmFetch, Reset) drops the memo first.
type IUnit struct {
	h   *Hierarchy
	tu  int
	cfg Config
	l1i *cache.Cache

	pending      bool
	pendingBlock uint64
	lastHit      uint64 // noBlock when no fetch hit is remembered

	// Statistics.
	Fetches uint64
	Misses  uint64
}

// init prepares a zero-valued instruction unit in place (IUnits live in
// the hierarchy's value slice).
func (iu *IUnit) init(h *Hierarchy, tu int, cfg Config) error {
	l1i, err := cache.New(cache.Params{
		SizeBytes: cfg.L1ISize, Assoc: cfg.L1IAssoc, BlockBytes: cfg.L1IBlock,
	})
	if err != nil {
		return err
	}
	*iu = IUnit{h: h, tu: tu, cfg: cfg, l1i: l1i, lastHit: noBlock}
	return nil
}

// noBlock is never a block address: blocks are aligned.
const noBlock = ^uint64(0)

// instAddr maps an instruction index to its simulated byte address in the
// code region of the shared address space.
func instAddr(pc int) uint64 { return instBase + uint64(pc)*16 }

// FetchReady reports whether the block holding pc is in the I-cache. On a
// miss it starts the fill (if none is outstanding) and returns false; the
// core should retry each cycle until the fill lands.
func (iu *IUnit) FetchReady(cycle uint64, pc int) bool {
	if iu.pending {
		return false
	}
	iu.Fetches++
	addr := instAddr(pc)
	block := iu.l1i.BlockAddr(addr)
	if block == iu.lastHit {
		return true
	}
	if _, hit := iu.l1i.Access(addr, false); hit {
		iu.lastHit = block
		return true
	}
	iu.Misses++
	iu.pending = true
	iu.pendingBlock = block
	iu.h.toL2(cycle, iu.tu, true, block)
	return false
}

// fill receives the missing instruction block from the L2.
func (iu *IUnit) fill(block uint64) {
	iu.lastHit = noBlock
	iu.l1i.Insert(block, 0, false)
	if iu.pending && block == iu.pendingBlock {
		iu.pending = false
	}
}

// Reset restores power-on state.
func (iu *IUnit) Reset() {
	iu.l1i.Reset()
	iu.lastHit = noBlock
	iu.pending = false
	iu.Fetches, iu.Misses = 0, 0
}
