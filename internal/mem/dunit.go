package mem

import (
	"repro/internal/attrib"
	"repro/internal/cache"
	"repro/internal/metrics"
)

// DUnit is one thread unit's data-side memory port: the private L1 data
// cache, the optional side buffer (victim cache, prefetch buffer, or WEC),
// and the MSHRs tracking outstanding misses. Cores must check CanAccept
// before calling Access in a given cycle; each access consumes one L1 port.
type DUnit struct {
	h    *Hierarchy
	tu   int
	cfg  Config
	l1   *cache.Cache
	side *cache.Cache // nil when cfg.Side == SideNone
	mshr dMSHR        // outstanding misses; waiters chain through Request.next

	// pool and nextID are per-DUnit. IDs are unique per port, which is all
	// Request.ID promises.
	pool   reqPool
	nextID int64

	portsUsed int

	// metrics, when non-nil, observes access latencies and side-buffer
	// promotion timeliness; sideInsertAt then tracks when each resident
	// side-buffer block was inserted.
	metrics      *metrics.Collector
	sideInsertAt map[uint64]uint64

	// attrib, when non-nil, receives fill provenance, eviction, and touch
	// events for the prefetch-effectiveness attribution layer.
	attrib *attrib.Collector

	// Statistics (correct-path demand unless stated otherwise).
	Accesses    uint64 // correct-path demand accesses
	Misses      uint64 // correct-path demand misses (both structures)
	Traffic     uint64 // every processor access incl. wrong execution
	WrongAcc    uint64 // wrong-execution accesses
	SideHits    uint64 // correct-path L1 misses that hit the side buffer
	SideInserts uint64
	PrefIssued  uint64
	PrefUseful  uint64 // correct demand touch of a prefetched block
	WrongUseful uint64 // correct demand touch of a wrong-fetched block
	UpdateRecv  uint64 // sequential-coherence updates applied
}

// init prepares a zero-valued data unit in place: DUnits live in the
// hierarchy's value slice, so they are initialized where they sit.
func (d *DUnit) init(h *Hierarchy, tu int, cfg Config) error {
	l1, err := cache.New(cache.Params{
		SizeBytes: cfg.L1DSize, Assoc: cfg.L1DAssoc, BlockBytes: cfg.L1DBlock,
	})
	if err != nil {
		return err
	}
	*d = DUnit{
		h:    h,
		tu:   tu,
		cfg:  cfg,
		l1:   l1,
		mshr: newDMSHR(cfg.L1DMSHRs),
	}
	if cfg.Side != SideNone {
		d.side, err = cache.NewFullyAssoc(cfg.SideEntries, cfg.L1DBlock)
		if err != nil {
			return err
		}
	}
	return nil
}

// L1 exposes the L1 tag array for tests and invariant checks.
func (d *DUnit) L1() *cache.Cache { return d.l1 }

// Side exposes the side buffer tag array (nil if none).
func (d *DUnit) Side() *cache.Cache { return d.side }

// SetMetrics attaches (or detaches, with nil) an observability collector.
func (d *DUnit) SetMetrics(c *metrics.Collector) {
	d.metrics = c
	if c != nil && d.side != nil && d.sideInsertAt == nil {
		d.sideInsertAt = make(map[uint64]uint64)
	}
}

// SetAttrib attaches (or detaches, with nil) an attribution collector.
func (d *DUnit) SetAttrib(a *attrib.Collector) { d.attrib = a }

// CanAccept reports whether another access fits in this cycle's ports.
func (d *DUnit) CanAccept() bool { return d.portsUsed < d.cfg.L1DPorts }

// MSHRFull reports whether a new miss could not be tracked right now.
func (d *DUnit) MSHRFull() bool { return d.mshr.full() }

func (d *DUnit) beginCycle() { d.portsUsed = 0 }

// specFlags masks the provenance bits a speculative fill leaves on a block.
const specFlags = cache.FlagWrong | cache.FlagPrefetch

// Access issues a data access at the given cycle and returns the tracking
// request. The caller must have checked CanAccept. Completion is indicated
// by req.Done with the value available at req.DoneCycle. src tags the
// issuing execution mode; pc is the issuing instruction (-1 if unknown).
//
// The routing logic implements Figure 6 of the paper; see the package
// comment for a summary.
func (d *DUnit) Access(cycle uint64, addr uint64, kind AccessKind, src Source, pc int) *Request {
	addr &= PhysMask
	d.portsUsed++
	d.Traffic++
	block := d.l1.BlockAddr(addr)
	req := d.pool.get()
	req.ID = d.nextID
	req.Addr = addr
	req.Kind = kind
	req.Src = src
	req.PC = pc
	req.Issued = cycle
	req.held = true
	d.nextID++

	if src.Wrong() {
		d.WrongAcc++
		if d.attrib != nil {
			d.attrib.OnWrongIssue(pc)
		}
		return d.accessWrong(cycle, block, req)
	}

	d.Accesses++
	flags, hit := d.l1.Access(addr, kind == Store)
	if hit {
		if d.attrib != nil {
			d.attrib.OnDemandAccess(d.tu, pc, block, cycle, false)
			if flags&specFlags != 0 {
				d.attrib.OnSpecTouch(d.tu, block, cycle)
			}
		}
		d.notePrefetchProvenance(flags)
		// Tagged next-line prefetch: first demand hit to a prefetched block
		// triggers a prefetch of the next line (nlp configuration).
		if d.cfg.NextLinePrefetch && flags&cache.FlagPrefetch != 0 {
			d.issuePrefetch(cycle, d.l1.NextBlock(addr), pc)
		}
		d.complete(req, cycle+uint64(d.cfg.L1HitLat))
		return req
	}

	// L1 miss: the side buffer is probed in parallel.
	if d.side != nil {
		if sflags, shit := d.side.Access(block, false); shit {
			d.SideHits++
			d.notePrefetchProvenance(sflags)
			if sflags&cache.FlagWrong != 0 {
				d.WrongUseful++
			}
			if d.attrib != nil {
				d.attrib.OnDemandAccess(d.tu, pc, block, cycle, false)
				if sflags&specFlags != 0 {
					d.attrib.OnSpecTouch(d.tu, block, cycle)
				} else {
					d.attrib.OnVictimHit(d.tu, block, cycle)
				}
			}
			if d.metrics != nil {
				if at, ok := d.sideInsertAt[block]; ok {
					d.metrics.ObserveWECPromotion(cycle - at)
					delete(d.sideInsertAt, block)
				}
			}
			// Swap: the block moves into L1; the L1 victim moves into the
			// side buffer (WEC and VC behaviour; the PB promotes without
			// keeping a victim, matching a conventional prefetch buffer).
			d.side.Remove(block)
			if d.attrib != nil {
				d.attrib.OnPromote(d.tu, block)
			}
			victim := d.l1.Insert(block, 0, kind == Store)
			if victim.Valid {
				if d.sideTakesVictims() {
					d.sideInsert(cycle, victim.Addr, victim.Flags, victim.Dirty,
						attrib.OriginVictim, -1, attrib.OriginDemand, -1)
				} else {
					if victim.Dirty {
						d.h.writeback(victim.Addr)
					}
					if d.attrib != nil {
						d.attrib.OnEvict(d.tu, victim.Addr, attrib.OriginDemand, -1, cycle)
					}
				}
			}
			// A correct-path hit on a wrong-fetched block in the WEC
			// initiates a next-line prefetch whose result goes to the WEC;
			// likewise the first hit to a tagged-prefetched block in the PB.
			if d.cfg.Side == SideWEC && !d.cfg.WECNoNextLine && sflags&cache.FlagWrong != 0 {
				d.issuePrefetch(cycle, d.l1.NextBlock(addr), pc)
			} else if d.cfg.NextLinePrefetch && sflags&cache.FlagPrefetch != 0 {
				d.issuePrefetch(cycle, d.l1.NextBlock(addr), pc)
			}
			d.complete(req, cycle+uint64(d.cfg.L1HitLat))
			return req
		}
	}

	// Miss in both structures: demand fill from below.
	d.Misses++
	if d.attrib != nil {
		d.attrib.OnDemandAccess(d.tu, pc, block, cycle, true)
	}
	if d.cfg.NextLinePrefetch {
		// Tagged prefetch initiates on every demand miss.
		d.issuePrefetch(cycle, d.l1.NextBlock(addr), pc)
	}
	d.miss(cycle, block, req)
	return req
}

// accessWrong handles a wrong-execution load: hits refresh LRU state only,
// misses fill the WEC when present (or L1 when the configuration lets wrong
// fills pollute, as in wp/wth without a WEC).
func (d *DUnit) accessWrong(cycle uint64, block uint64, req *Request) *Request {
	if d.l1.Touch(block) {
		d.complete(req, cycle+uint64(d.cfg.L1HitLat))
		return req
	}
	if d.side != nil && d.side.Touch(block) {
		d.complete(req, cycle+uint64(d.cfg.L1HitLat))
		return req
	}
	d.miss(cycle, block, req)
	return req
}

// miss registers the request in the MSHRs and forwards it to the L2 when it
// opens a new entry. An MSHR-full condition completes the request late, at
// a pessimistic memory latency, rather than stalling the simulator.
func (d *DUnit) miss(cycle uint64, block uint64, req *Request) {
	allocated, ok := d.mshr.add(block, req)
	if !ok {
		d.complete(req, cycle+uint64(d.cfg.MemLat))
		return
	}
	if allocated {
		d.h.toL2(cycle, d.tu, false, block)
	}
}

// issuePrefetch requests block into the side buffer if it is not already
// resident or in flight. pc is the demand instruction that triggered it.
func (d *DUnit) issuePrefetch(cycle uint64, block uint64, pc int) {
	if d.side == nil && !d.cfg.NextLinePrefetch {
		return
	}
	if d.l1.Probe(block) || (d.side != nil && d.side.Probe(block)) || d.mshr.lookup(block) {
		return
	}
	if d.mshr.full() {
		return
	}
	req := d.pool.get()
	req.ID = d.nextID
	req.Addr = block
	req.Kind = Prefetch
	req.Src = SrcDemand
	req.PC = pc
	req.Issued = cycle
	d.nextID++
	d.PrefIssued++
	allocated, ok := d.mshr.add(block, req)
	if !ok {
		d.pool.put(req)
		return
	}
	if allocated {
		d.h.toL2(cycle, d.tu, false, block)
	}
}

// originOf maps a request to its attribution fill origin.
func originOf(req *Request) attrib.Origin {
	switch {
	case req.Kind == Prefetch:
		return attrib.OriginPrefetch
	case req.Src == SrcWrongPath:
		return attrib.OriginWrongPath
	case req.Src == SrcWrongThread:
		return attrib.OriginWrongThread
	}
	return attrib.OriginDemand
}

// fill delivers a block from the lower hierarchy at the given cycle,
// walking the MSHR entry's intrusive waiter chain in arrival order.
func (d *DUnit) fill(block uint64, cycle uint64) {
	chain := d.mshr.complete(block)
	demand := false // any correct-path demand waiter
	store := false
	prefetchOnly := true // only prefetch waiters
	wrongOnly := true    // only wrong-execution waiters (no correct demand)
	allocOrigin, allocPC := attrib.OriginDemand, -1
	first := true
	demandPC := -1
	for req := chain; req != nil; {
		next := req.next
		req.next = nil
		if first {
			// The chain head is the request that opened the MSHR entry.
			allocOrigin, allocPC = originOf(req), req.PC
			first = false
		}
		switch {
		case req.Kind == Prefetch:
		case req.Src.Wrong():
			prefetchOnly = false
		default:
			demand = true
			prefetchOnly = false
			wrongOnly = false
			if demandPC < 0 {
				demandPC = req.PC
			}
			if req.Kind == Store {
				store = true
			}
		}
		d.complete(req, cycle)
		req.pending = false
		if !req.held {
			d.pool.put(req)
		}
		req = next
	}

	switch {
	case demand:
		// Correct-path fill goes to L1; the victim goes to the WEC/VC.
		if d.attrib != nil {
			if allocOrigin.Spec() {
				// A speculative request opened this entry and a correct
				// demand merged into it: right block, partially hidden
				// latency ("late" prefetch).
				d.attrib.OnLateFill(allocOrigin, allocPC)
			}
			d.attrib.OnFill(d.tu, block, attrib.OriginDemand, demandPC, cycle, attrib.StructL1)
		}
		victim := d.l1.Insert(block, 0, store)
		if victim.Valid {
			if d.sideTakesVictims() {
				d.sideInsert(cycle, victim.Addr, victim.Flags, victim.Dirty,
					attrib.OriginVictim, -1, attrib.OriginDemand, -1)
			} else {
				if victim.Dirty {
					d.h.writeback(victim.Addr)
				}
				if d.attrib != nil {
					d.attrib.OnEvict(d.tu, victim.Addr, attrib.OriginDemand, -1, cycle)
				}
			}
		}
	case prefetchOnly && wrongOnly:
		// Pure prefetch fill: into the side buffer when one exists, else
		// (nlp without PB cannot happen; PB is required) drop into L1.
		fl := uint8(cache.FlagPrefetch)
		if d.cfg.Side == SideWEC {
			// WEC prefetches chain: mark them wrong-fetched so a later
			// correct-path hit triggers the next line (§3.2.1).
			fl |= cache.FlagWrong
		}
		if d.side != nil {
			d.sideInsert(cycle, block, fl, false, allocOrigin, allocPC, allocOrigin, allocPC)
		} else {
			d.fillL1Polluting(cycle, block, fl, allocOrigin, allocPC)
		}
	default:
		// Wrong-execution fill (possibly merged with prefetches).
		if d.cfg.Side == SideWEC {
			d.sideInsert(cycle, block, cache.FlagWrong, false, allocOrigin, allocPC, allocOrigin, allocPC)
		} else if d.cfg.WrongFillsToL1 {
			d.fillL1Polluting(cycle, block, cache.FlagWrong, allocOrigin, allocPC)
		} else if d.side != nil && d.cfg.Side == SidePB {
			d.sideInsert(cycle, block, cache.FlagWrong, false, allocOrigin, allocPC, allocOrigin, allocPC)
		}
		// With SideVC and !WrongFillsToL1 the block is dropped entirely
		// (pure orig semantics never reach here: orig issues no wrong loads).
	}
}

// fillL1Polluting inserts a wrong-execution or prefetch block directly into
// L1 (the wp/wth configurations), sending the victim to the VC if present.
// origin/pc attribute the speculative fill that displaces the victim.
func (d *DUnit) fillL1Polluting(cycle uint64, block uint64, flags uint8, origin attrib.Origin, pc int) {
	if d.attrib != nil {
		d.attrib.OnFill(d.tu, block, origin, pc, cycle, attrib.StructL1)
	}
	victim := d.l1.Insert(block, flags, false)
	if victim.Valid {
		if d.cfg.Side == SideVC {
			d.sideInsert(cycle, victim.Addr, victim.Flags, victim.Dirty,
				attrib.OriginVictim, -1, origin, pc)
		} else {
			if victim.Dirty {
				d.h.writeback(victim.Addr)
			}
			if d.attrib != nil {
				d.attrib.OnEvict(d.tu, victim.Addr, origin, pc, cycle)
			}
		}
	}
}

// sideTakesVictims reports whether L1 victims are captured by the side
// buffer (victim caches always; the WEC unless ablated).
func (d *DUnit) sideTakesVictims() bool {
	switch d.cfg.Side {
	case SideVC:
		return true
	case SideWEC:
		return !d.cfg.WECNoVictim
	}
	return false
}

// sideInsert places a block in the side buffer. origin/pc describe the
// block's own provenance (a speculative fill or an L1 victim capture);
// cause/causePC describe the root event, so a side-buffer eviction this
// insert forces can be attributed to the speculation that started the
// cascade.
func (d *DUnit) sideInsert(cycle uint64, block uint64, flags uint8, dirty bool,
	origin attrib.Origin, pc int, cause attrib.Origin, causePC int) {
	d.SideInserts++
	victim := d.side.Insert(block, flags, dirty)
	if victim.Valid && victim.Dirty {
		d.h.writeback(victim.Addr)
	}
	if d.metrics != nil {
		d.sideInsertAt[block] = cycle
		if victim.Valid {
			delete(d.sideInsertAt, victim.Addr)
		}
	}
	if d.attrib != nil {
		if victim.Valid {
			d.attrib.OnEvict(d.tu, victim.Addr, cause, causePC, cycle)
		}
		if origin == attrib.OriginVictim {
			d.attrib.OnVictimCapture(d.tu, block, cycle)
		} else {
			d.attrib.OnFill(d.tu, block, origin, pc, cycle, attrib.StructSide)
		}
	}
}

func (d *DUnit) notePrefetchProvenance(flags uint8) {
	if flags&cache.FlagPrefetch != 0 {
		d.PrefUseful++
	}
}

// complete finishes a request; at is the value-availability cycle.
func (d *DUnit) complete(req *Request, at uint64) {
	req.Done = true
	req.DoneCycle = at
	if d.metrics != nil && req.Kind != Prefetch {
		d.metrics.ObserveMemAccess(d.tu, req.PC, req.Issued, at, req.Wrong())
	}
}

// applyUpdate receives a sequential-mode coherence update: if the block is
// cached here it is refreshed in place (update protocol, §3.2.2). Returns
// whether any structure held the block.
func (d *DUnit) applyUpdate(addr uint64) bool {
	block := d.l1.BlockAddr(addr)
	hit := false
	if d.l1.Probe(block) {
		d.l1.SetDirty(block)
		hit = true
	}
	if d.side != nil && d.side.Probe(block) {
		hit = true
	}
	if hit {
		d.UpdateRecv++
	}
	return hit
}

// Reset clears all cache contents, MSHRs, and statistics.
func (d *DUnit) Reset() {
	d.l1.Reset()
	if d.side != nil {
		d.side.Reset()
	}
	d.mshr.reset()
	if d.sideInsertAt != nil {
		d.sideInsertAt = make(map[uint64]uint64)
	}
	d.portsUsed = 0
	d.Accesses, d.Misses, d.Traffic, d.WrongAcc = 0, 0, 0, 0
	d.SideHits, d.SideInserts, d.PrefIssued, d.PrefUseful = 0, 0, 0, 0
	d.WrongUseful, d.UpdateRecv = 0, 0
}
