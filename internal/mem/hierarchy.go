package mem

import (
	"math/bits"

	"repro/internal/cache"
	"repro/internal/chaos"
	"repro/internal/metrics"
)

// instBase places instruction addresses in a disjoint region of the shared
// L2's address space so code and data never alias.
const instBase = uint64(1) << 40

// Hierarchy owns the shared portion of the memory system (unified L2 and
// DRAM) and the per-thread-unit L1 units. Drive it with BeginCycle at the
// top of every simulated cycle and Tick at the bottom.
type Hierarchy struct {
	cfg    Config
	l2     *cache.Cache
	l2MSHR *cache.MSHRFile

	// Per-TU units live inline, indexed by TU id: the sweeps
	// (SequentialUpdate, warming) touch every unit, and value slices keep
	// them contiguous instead of one pointer dereference per TU. Sized
	// once at NewHierarchy and never reallocated — DUnit/IUnit hand out
	// &dunits[i]/&iunits[i] pointers that must stay valid for the
	// hierarchy's lifetime.
	dunits []DUnit
	iunits []IUnit

	// l2Queue is a ring: l2qHead indexes the front, new requests append.
	// The backing array is reused once the queue drains.
	l2Queue []l2Req
	l2qHead int
	fills   []fill // binary min-heap ordered by at
	chaos   *chaos.Injector

	// warmBlocks holds the blocks WarmSequentialStore stored from TU
	// warmSrc whose refresh in the other TUs' L1s FlushWarmStores has not
	// yet applied (warm.go).
	warmBlocks blockSet
	warmSrc    int

	// resGen is the resident-set generation every L1D and side buffer
	// counts in (cache.ShareGeneration); upd is the last SequentialUpdate
	// sweep, replayed while resGen has not moved.
	resGen uint64
	upd    updateMemo

	// epoch counts BeginCycle calls; a DUnit whose portEpoch lags it
	// clears its port count on first use (DUnit.ports).
	epoch uint64

	// Statistics.
	L2Accesses uint64
	L2Misses   uint64
	DRAMFills  uint64
	Writebacks uint64
	UpdateBus  uint64 // sequential-mode coherence bus transactions
}

// updateMemo records one SequentialUpdate sweep: the storing TU, the
// block, the resident-set generation it ran at and the TUs whose L1D or
// side buffer held the block.
type updateMemo struct {
	src     int
	block   uint64
	gen     uint64
	holders uint64
	valid   bool
}

type l2Req struct {
	block uint64 // L1-block-aligned address (instBase-tagged for code)
	ready uint64
	tu    int
	isI   bool
}

type fill struct {
	at    uint64
	block uint64
	tu    int
	isI   bool
}

// pushFill inserts a fill into the min-heap. Hand-written sift-up (same
// algorithm and tie-breaking as container/heap) so pushing a fill does not
// box the value into an interface and allocate.
func (h *Hierarchy) pushFill(f fill) {
	h.fills = append(h.fills, f)
	j := len(h.fills) - 1
	for j > 0 {
		i := (j - 1) / 2
		if h.fills[i].at <= h.fills[j].at {
			break
		}
		h.fills[i], h.fills[j] = h.fills[j], h.fills[i]
		j = i
	}
}

// popFill removes and returns the earliest fill (container/heap's sift-down
// order, so delivery order of same-cycle fills is unchanged).
func (h *Hierarchy) popFill() fill {
	fs := h.fills
	n := len(fs) - 1
	fs[0], fs[n] = fs[n], fs[0]
	i := 0
	for {
		j := 2*i + 1
		if j >= n {
			break
		}
		if j2 := j + 1; j2 < n && fs[j2].at < fs[j].at {
			j = j2
		}
		if fs[j].at >= fs[i].at {
			break
		}
		fs[i], fs[j] = fs[j], fs[i]
		i = j
	}
	v := fs[n]
	h.fills = fs[:n]
	return v
}

// NewHierarchy builds the memory system for nTU thread units.
func NewHierarchy(nTU int, cfg Config) (*Hierarchy, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	l2, err := cache.New(cache.Params{
		SizeBytes: cfg.L2Size, Assoc: cfg.L2Assoc, BlockBytes: cfg.L2Block,
	})
	if err != nil {
		return nil, err
	}
	h := &Hierarchy{
		cfg:    cfg,
		l2:     l2,
		l2MSHR: cache.NewMSHRFile(cfg.L2MSHRs),
	}
	h.dunits = make([]DUnit, nTU)
	h.iunits = make([]IUnit, nTU)
	for tu := 0; tu < nTU; tu++ {
		if err := h.dunits[tu].init(h, tu, cfg); err != nil {
			return nil, err
		}
		if err := h.iunits[tu].init(h, tu, cfg); err != nil {
			return nil, err
		}
	}
	return h, nil
}

// DUnit returns thread unit tu's data port.
func (h *Hierarchy) DUnit(tu int) *DUnit { return &h.dunits[tu] }

// IUnit returns thread unit tu's instruction port.
func (h *Hierarchy) IUnit(tu int) *IUnit { return &h.iunits[tu] }

// Config returns the hierarchy's configuration.
func (h *Hierarchy) Config() Config { return h.cfg }

// L2 exposes the shared cache for tests.
func (h *Hierarchy) L2() *cache.Cache { return h.l2 }

// SetMetrics attaches an observability collector to every data unit.
func (h *Hierarchy) SetMetrics(c *metrics.Collector) {
	for i := range h.dunits {
		h.dunits[i].SetMetrics(c)
	}
}

// SetChaos attaches (or detaches, with nil) a fault injector; its
// slow-cycle point fires inside Tick.
func (h *Hierarchy) SetChaos(in *chaos.Injector) { h.chaos = in }

// BeginCycle opens a new cycle's L1 port window; call before stepping the
// cores. Each data unit clears its port count lazily, on its first use in
// the new window, so the call costs the same for any number of units and
// needs no cycle number, only the call itself.
func (h *Hierarchy) BeginCycle(_ uint64) { h.epoch++ }

// toL2 enqueues a fill request for an L1 block.
func (h *Hierarchy) toL2(cycle uint64, tu int, isI bool, block uint64) {
	h.l2Queue = append(h.l2Queue, l2Req{block: block, ready: cycle + 1, tu: tu, isI: isI})
}

// writeback models a dirty eviction below the L1s. Writebacks consume L2
// bandwidth statistics but, as in sim-outorder, do not delay demand fills.
func (h *Hierarchy) writeback(block uint64) {
	h.Writebacks++
	h.l2.Insert(block, 0, true)
}

// SequentialUpdate propagates a store executed during sequential execution
// to every other (idle) thread unit's private caches via the shared bus
// update protocol of §3.2.2. It adds bus traffic but no stall cycles.
//
// A store to the block the last sweep updated, from the same TU, with no
// L1D or side-buffer resident-set change since (resGen unmoved), finds the
// same holders: it replays the sweep's counts instead of probing every
// peer. The holders' dirty bits are already set, and no path clears a
// dirty bit without changing the resident set. The memo is exact only
// while every path that inserts a new block into, removes one from, or
// resets an L1D or side buffer bumps resGen, which cache.Insert, Remove
// and Reset do. TU ids stay below 64, as for Tick's woken set.
func (h *Hierarchy) SequentialUpdate(srcTU int, addr uint64) {
	block := h.dunits[srcTU].l1.BlockAddr(addr)
	if u := &h.upd; u.valid && u.gen == h.resGen && u.block == block && u.src == srcTU {
		for m := u.holders; m != 0; m &= m - 1 {
			h.dunits[bits.TrailingZeros64(m)].UpdateRecv++
		}
		h.UpdateBus += uint64(bits.OnesCount64(u.holders))
		return
	}
	var holders uint64
	for tu := range h.dunits {
		if tu == srcTU {
			continue
		}
		if h.dunits[tu].applyUpdate(addr) {
			h.UpdateBus++
			holders |= 1 << uint(tu)
		}
	}
	h.upd = updateMemo{src: srcTU, block: block, gen: h.resGen, holders: holders, valid: true}
}

// Tick advances the shared levels by one cycle: the L2 accepts one request,
// DRAM completions fill the L2, and finished fills are delivered to the L1
// units. Call after stepping the cores each cycle. The returned woken set
// has bit tu set for every thread unit whose I or D unit received a fill
// this cycle: the only way the hierarchy changes what a core may do next,
// so a core outside the set keeps its wake bound. Thread-unit ids stay
// below 64 (the L2 MSHR token already packs them into six bits).
func (h *Hierarchy) Tick(cycle uint64) (woken uint64) {
	if h.chaos != nil {
		h.chaos.SlowCycle()
	}
	// L2 accepts one request per cycle, FIFO.
	if h.l2qHead < len(h.l2Queue) && h.l2Queue[h.l2qHead].ready <= cycle {
		req := h.l2Queue[h.l2qHead]
		h.l2qHead++
		if h.l2qHead == len(h.l2Queue) {
			// Drained: reuse the backing array from the start.
			h.l2Queue = h.l2Queue[:0]
			h.l2qHead = 0
		} else if h.l2qHead >= 64 {
			// Compact occasionally so a long-lived queue can't grow without
			// bound behind a stale head region.
			n := copy(h.l2Queue, h.l2Queue[h.l2qHead:])
			h.l2Queue = h.l2Queue[:n]
			h.l2qHead = 0
		}
		h.serviceL2(cycle, req)
	}
	// Deliver due fills.
	for len(h.fills) > 0 && h.fills[0].at <= cycle {
		f := h.popFill()
		switch {
		case f.tu < 0:
			h.completeDRAM(f.at, f.block)
			continue
		case f.isI:
			h.iunits[f.tu].fill(f.block)
		default:
			h.dunits[f.tu].fill(f.block, f.at)
		}
		woken |= 1 << uint(f.tu)
	}
	return woken
}

// NextWake returns the earliest future cycle at which Tick could have any
// effect: the front L2 queue entry becoming ready or the earliest pending
// fill. neverWake when both are empty.
func (h *Hierarchy) NextWake(cycle uint64) uint64 {
	w := uint64(neverWake)
	if h.l2qHead < len(h.l2Queue) {
		w = h.l2Queue[h.l2qHead].ready
	}
	if len(h.fills) > 0 && h.fills[0].at < w {
		w = h.fills[0].at
	}
	if w != neverWake && w <= cycle {
		w = cycle + 1
	}
	return w
}

// serviceL2 performs one L2 lookup for an L1 miss.
func (h *Hierarchy) serviceL2(cycle uint64, req l2Req) {
	h.L2Accesses++
	l2block := h.l2.BlockAddr(req.block)
	if _, hit := h.l2.Access(l2block, false); hit {
		h.pushFill(fill{
			at:    cycle + uint64(h.cfg.L2HitLat) - 1,
			block: req.block,
			tu:    req.tu,
			isI:   req.isI,
		})
		return
	}
	h.L2Misses++
	// Encode the waiting L1 request into an opaque MSHR token:
	// block<<7 | isI<<6 | tu. Block addresses stay below 2^41 (instBase is
	// 1<<40) and nTU below 64, so the token fits an int64 losslessly.
	tok := int64(req.block)<<7 | int64(req.tu)
	if req.isI {
		tok |= 1 << 6
	}
	allocated, ok := h.l2MSHR.Add(l2block, tok)
	if !ok {
		// L2 MSHRs exhausted: service without merging at full latency.
		h.pushFill(fill{
			at:    cycle + uint64(h.cfg.MemLat) - 1,
			block: req.block,
			tu:    req.tu,
			isI:   req.isI,
		})
		h.DRAMFills++
		return
	}
	if allocated {
		// DRAM completes the L2 fill; waiters are released then.
		h.pushFill(fill{
			at:    cycle + uint64(h.cfg.MemLat) - uint64(h.cfg.L2HitLat) - 1,
			block: l2block,
			tu:    -1, // sentinel: DRAM->L2 fill
		})
	}
}

// completeDRAM is invoked via the fill heap sentinel (tu == -1): the L2
// block arrives from memory, is inserted into the L2, and all merged L1
// waiters receive their fills after the L2 pass-through latency.
func (h *Hierarchy) completeDRAM(cycle uint64, l2block uint64) {
	h.DRAMFills++
	victim := h.l2.Insert(l2block, 0, false)
	_ = victim // L2 victims write back to DRAM; no further state to model.
	for _, tok := range h.l2MSHR.Complete(l2block) {
		h.pushFill(fill{
			at:    cycle + uint64(h.cfg.L2HitLat),
			block: uint64(tok) >> 7,
			tu:    int(tok & 63),
			isI:   tok&(1<<6) != 0,
		})
	}
}

// Reset restores the hierarchy to power-on state.
func (h *Hierarchy) Reset() {
	h.warmBlocks.reset()
	h.l2.Reset()
	h.l2MSHR.Reset()
	for i := range h.dunits {
		h.dunits[i].Reset()
	}
	for i := range h.iunits {
		h.iunits[i].Reset()
	}
	h.l2Queue, h.l2qHead = nil, 0
	h.fills = nil
	h.L2Accesses, h.L2Misses, h.DRAMFills, h.Writebacks, h.UpdateBus = 0, 0, 0, 0, 0
}
