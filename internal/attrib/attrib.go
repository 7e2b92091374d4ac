// Package attrib implements the prefetch-effectiveness and cache-pollution
// attribution layer: an opt-in collector, carried by metrics.Collector as
// its Attrib, that answers *why* the speculative fill mechanisms
// (wrong-path loads, wrong-thread loads, next-line prefetch) help or hurt.
//
// The collector keeps a block-provenance table for every thread unit's L1 +
// side-buffer pair, recording who brought each resident block in (correct
// demand, wrong-path load, wrong-thread load, next-line prefetch, or an L1
// victim capture), from which instruction (PC), and when. Every speculative
// fill is classified exactly once:
//
//   - useful: a correct-path demand access touched the block before it was
//     evicted from the unit;
//   - late: a correct demand merged into the still-in-flight MSHR entry a
//     wrong/prefetch request had opened — the speculation chose the right
//     block but did not fully hide the latency;
//   - useless: the block was evicted from the unit untouched;
//   - resident: still untouched in a cache when the run ended.
//
// Pollution is attributed through a shadow table: when a speculative fill
// (or the victim cascade it triggers) pushes a correct-path block out of the
// unit, the displaced block address is remembered; a correct demand miss on
// it within Window cycles counts as one polluting event against the
// speculative fill's origin and PC.
//
// Per-load-PC profiles aggregate the same events by issuing instruction, so
// a report can show which loads drive the traffic, the misses, and the
// useful or polluting speculation.
//
// Like the metrics package, every hook tolerates a nil receiver and the
// instrumented hot paths in internal/mem guard each call site with a nil
// check, so detached runs pay one untaken branch per site.
package attrib

import (
	"fmt"

	"repro/internal/trace"
)

// Origin identifies who caused a fill (or an eviction) in the L1/side pair.
type Origin uint8

// Fill origins. OriginDemand and OriginVictim describe correct-path data;
// the other three are the speculative mechanisms under study.
const (
	OriginDemand      Origin = iota // correct-path demand fill
	OriginWrongPath                 // squashed wrong-path load continuation
	OriginWrongThread               // load issued by a wrong-thread
	OriginPrefetch                  // tagged next-line prefetch
	OriginVictim                    // L1 victim captured by the side buffer
	numOrigins
)

// String returns the report name of the origin.
func (o Origin) String() string {
	switch o {
	case OriginDemand:
		return "demand"
	case OriginWrongPath:
		return "wrong_path"
	case OriginWrongThread:
		return "wrong_thread"
	case OriginPrefetch:
		return "prefetch"
	case OriginVictim:
		return "victim"
	}
	return fmt.Sprintf("origin(%d)", uint8(o))
}

// Spec reports whether the origin is one of the speculative fill sources.
func (o Origin) Spec() bool {
	return o == OriginWrongPath || o == OriginWrongThread || o == OriginPrefetch
}

// Structure locates a block within a thread unit's data-side pair.
type Structure uint8

// Structures of the provenance table key.
const (
	StructL1 Structure = iota
	StructSide
)

// Record is one live row of the block-provenance table.
type Record struct {
	Origin    Origin
	PC        int // issuing instruction; -1 when unknown (e.g. victims)
	TU        int
	FillCycle uint64
	Struct    Structure
	Touched   bool // a correct-path demand access has claimed the block
}

// shadowEntry remembers a correct-path block displaced by speculation.
type shadowEntry struct {
	evictedAt uint64
	by        Origin
	byPC      int
}

// unit is the per-thread-unit state: provenance records for resident blocks
// (bounded by L1 blocks + side entries) and the displaced-block shadow table.
type unit struct {
	records map[uint64]*Record
	shadow  map[uint64]shadowEntry
}

// PCProfile aggregates one load PC's memory behaviour.
type PCProfile struct {
	PC          int    `json:"pc"`
	Accesses    uint64 `json:"accesses"`     // correct-path demand accesses
	Misses      uint64 `json:"misses"`       // missed both L1 and side buffer
	WrongIssues uint64 `json:"wrong_issues"` // wrong-execution issues
	SpecFills   uint64 `json:"spec_fills"`   // speculative fills this PC caused
	Useful      uint64 `json:"useful"`
	Late        uint64 `json:"late"`
	Useless     uint64 `json:"useless"`
	Polluting   uint64 `json:"polluting"` // re-misses caused by this PC's fills
}

// Collector settings.
const (
	// DefaultWindow is the pollution re-miss window in cycles: a displaced
	// correct-path block re-missed within this many cycles of its eviction
	// counts as pollution. An L1 working-set turnover at the paper's miss
	// rates is a few thousand cycles; 2000 keeps the attribution causal.
	DefaultWindow = 2000
	// DefaultTopN bounds the per-PC table emitted in reports.
	DefaultTopN = 20
	// maxShadow bounds each unit's displaced-block shadow table.
	maxShadow = 4096
)

// Collector is the attribution sink for one simulation run. Attach it as
// the Attrib of the machine's metrics.Collector before Run; read the
// results with Report.
//
// All hook methods tolerate a nil receiver. The collector is not safe for
// concurrent use — one collector per machine, like metrics.Collector.
type Collector struct {
	window uint64 // pollution re-miss window in cycles
	topN   int    // per-PC rows in Report
	// Timeline, when non-nil, receives pollution and useful-promotion
	// instant events on the owning thread unit's memory track.
	Timeline *trace.Timeline

	units []*unit
	pcs   map[int]*PCProfile

	specFills       [numOrigins]uint64 // spec fills inserted into the unit
	late            [numOrigins]uint64 // demand merged into spec MSHR entry
	useful          [numOrigins]uint64
	useless         [numOrigins]uint64
	resident        [numOrigins]uint64 // untouched at end of run (Finish)
	polluting       [numOrigins]uint64 // displaced block re-missed in window
	pollutionEvicts [numOrigins]uint64 // correct blocks displaced by origin

	demandFills   uint64
	victimInserts uint64
	victimHits    uint64 // correct-path side hits on non-speculative blocks
	refills       uint64 // fills overwriting a live record (expected 0)
	shadowDropped uint64 // shadow-table insertions refused at capacity
	finished      bool
}

// NewCollector returns a collector with the DefaultWindow pollution
// window and DefaultTopN per-PC rows.
func NewCollector() *Collector {
	return &Collector{window: DefaultWindow, topN: DefaultTopN, pcs: make(map[int]*PCProfile)}
}

func (a *Collector) unit(tu int) *unit {
	for tu >= len(a.units) {
		a.units = append(a.units, &unit{
			records: make(map[uint64]*Record),
			shadow:  make(map[uint64]shadowEntry),
		})
	}
	return a.units[tu]
}

func (a *Collector) pc(pc int) *PCProfile {
	if a.pcs == nil {
		a.pcs = make(map[int]*PCProfile)
	}
	p, ok := a.pcs[pc]
	if !ok {
		p = &PCProfile{PC: pc}
		a.pcs[pc] = p
	}
	return p
}

// OnDemandAccess records one correct-path demand access from pc. missBoth
// marks accesses that missed the L1 and the side buffer; those are checked
// against the shadow table for pollution attribution.
func (a *Collector) OnDemandAccess(tu, pc int, block, cycle uint64, missBoth bool) {
	if a == nil {
		return
	}
	p := a.pc(pc)
	p.Accesses++
	if !missBoth {
		return
	}
	p.Misses++
	u := a.unit(tu)
	se, ok := u.shadow[block]
	if !ok {
		return
	}
	delete(u.shadow, block)
	if cycle-se.evictedAt > a.window {
		return
	}
	a.polluting[se.by]++
	if se.byPC >= 0 {
		a.pc(se.byPC).Polluting++
	}
	if a.Timeline != nil {
		a.Timeline.AttribInstant(tu, "pollution", cycle, map[string]any{
			"block": block, "by": se.by.String(), "age": cycle - se.evictedAt,
		})
	}
}

// OnWrongIssue records one wrong-execution access issued from pc.
func (a *Collector) OnWrongIssue(pc int) {
	if a == nil {
		return
	}
	a.pc(pc).WrongIssues++
}

// OnFill records a block entering the unit: a demand fill into the L1 or a
// speculative fill into the side buffer (or the L1 in polluting configs).
func (a *Collector) OnFill(tu int, block uint64, origin Origin, pc int, cycle uint64, st Structure) {
	if a == nil {
		return
	}
	u := a.unit(tu)
	if _, exists := u.records[block]; exists {
		a.refills++
	}
	rec := &Record{Origin: origin, PC: pc, TU: tu, FillCycle: cycle, Struct: st}
	if origin.Spec() {
		a.specFills[origin]++
		if pc >= 0 {
			a.pc(pc).SpecFills++
		}
	} else {
		// Demand fills are born claimed: their eviction is never "useless",
		// and displacing them can be pollution.
		rec.Touched = true
		a.demandFills++
	}
	u.records[block] = rec
	// The block is back in the unit; a pending shadow entry is obsolete.
	delete(u.shadow, block)
}

// OnLateFill records a fill whose MSHR entry was opened by a speculative
// request but which a correct demand access merged into: right block, too
// late to fully hide the latency. The fill itself is a demand fill.
func (a *Collector) OnLateFill(origin Origin, pc int) {
	if a == nil || !origin.Spec() {
		return
	}
	a.late[origin]++
	if pc >= 0 {
		a.pc(pc).Late++
	}
}

// OnVictimCapture records an L1 victim moving into the side buffer. The
// block stays in the unit: its provenance record (if any) moves with it,
// otherwise a victim-origin record is created.
func (a *Collector) OnVictimCapture(tu int, block, cycle uint64) {
	if a == nil {
		return
	}
	a.victimInserts++
	u := a.unit(tu)
	if rec, ok := u.records[block]; ok {
		rec.Struct = StructSide
		return
	}
	u.records[block] = &Record{
		Origin: OriginVictim, PC: -1, TU: tu,
		FillCycle: cycle, Struct: StructSide, Touched: true,
	}
}

// OnSpecTouch classifies a correct-path demand touch of a block whose cache
// flags still carried speculative provenance: the fill was useful.
func (a *Collector) OnSpecTouch(tu int, block, cycle uint64) {
	if a == nil {
		return
	}
	rec, ok := a.unit(tu).records[block]
	if !ok || rec.Touched {
		return
	}
	rec.Touched = true
	if !rec.Origin.Spec() {
		return
	}
	a.useful[rec.Origin]++
	if rec.PC >= 0 {
		a.pc(rec.PC).Useful++
	}
	if a.Timeline != nil {
		a.Timeline.AttribInstant(tu, "useful-"+rec.Origin.String(), cycle, map[string]any{
			"block": block, "age": cycle - rec.FillCycle,
		})
	}
}

// OnVictimHit records a correct-path side-buffer hit on a block with no
// speculative provenance: the side buffer acting in its victim-cache role.
func (a *Collector) OnVictimHit(tu int, block, cycle uint64) {
	if a == nil {
		return
	}
	a.victimHits++
	if rec, ok := a.unit(tu).records[block]; ok {
		rec.Touched = true
	}
}

// OnPromote records a side-buffer block swapping into the L1.
func (a *Collector) OnPromote(tu int, block uint64) {
	if a == nil {
		return
	}
	if rec, ok := a.unit(tu).records[block]; ok {
		rec.Struct = StructL1
	}
}

// OnEvict records a block leaving the unit entirely (not a victim capture).
// cause identifies what displaced it: an untouched speculative block becomes
// useless; a correct-path block displaced by speculation enters the shadow
// table so a near-term re-miss can be attributed as pollution.
func (a *Collector) OnEvict(tu int, block uint64, cause Origin, causePC int, cycle uint64) {
	if a == nil {
		return
	}
	u := a.unit(tu)
	rec, ok := u.records[block]
	if !ok {
		return
	}
	delete(u.records, block)
	if rec.Origin.Spec() && !rec.Touched {
		a.useless[rec.Origin]++
		if rec.PC >= 0 {
			a.pc(rec.PC).Useless++
		}
		return
	}
	if !cause.Spec() {
		return
	}
	a.pollutionEvicts[cause]++
	if len(u.shadow) >= maxShadow {
		for b, se := range u.shadow {
			if cycle-se.evictedAt > a.window {
				delete(u.shadow, b)
			}
		}
		if len(u.shadow) >= maxShadow {
			a.shadowDropped++
			return
		}
	}
	u.shadow[block] = shadowEntry{evictedAt: cycle, by: cause, byPC: causePC}
}

// Finish seals the run: every speculative record still untouched in a cache
// is counted resident (neither useful nor evicted). Idempotent; Report calls
// it automatically.
func (a *Collector) Finish() {
	if a == nil || a.finished {
		return
	}
	a.finished = true
	for _, u := range a.units {
		for _, rec := range u.records {
			if rec.Origin.Spec() && !rec.Touched {
				a.resident[rec.Origin]++
			}
		}
	}
}

// Registrar is the part of a counter registry RegisterInto needs;
// metrics.Registry implements it.
type Registrar interface {
	RegisterFunc(scope, name string, fn func() uint64)
}

// RegisterInto exposes the aggregate attribution counters in a registry
// under the "attrib" scope.
func (a *Collector) RegisterInto(reg Registrar) {
	if a == nil {
		return
	}
	sum := func(arr *[numOrigins]uint64) func() uint64 {
		return func() uint64 {
			var n uint64
			for _, v := range arr {
				n += v
			}
			return n
		}
	}
	reg.RegisterFunc("attrib", "spec_fills", sum(&a.specFills))
	reg.RegisterFunc("attrib", "useful", sum(&a.useful))
	reg.RegisterFunc("attrib", "late", sum(&a.late))
	reg.RegisterFunc("attrib", "useless", sum(&a.useless))
	reg.RegisterFunc("attrib", "polluting", sum(&a.polluting))
	reg.RegisterFunc("attrib", "demand_fills", func() uint64 { return a.demandFills })
	reg.RegisterFunc("attrib", "victim_inserts", func() uint64 { return a.victimInserts })
	reg.RegisterFunc("attrib", "victim_hits", func() uint64 { return a.victimHits })
}
