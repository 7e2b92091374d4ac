package mem

import (
	"testing"

	"repro/internal/attrib"
	"repro/internal/metrics"
)

// The tests below pin down the DUnit.fill routing matrix: where a completed
// miss lands (L1, side buffer, or dropped) for demand, wrong-execution, and
// prefetch-only fills under each side-buffer kind and the WrongFillsToL1
// knob — and how the attribution layer classifies each outcome.

// fillRig is one 1-TU hierarchy with an attached attribution collector.
type fillRig struct {
	t   *testing.T
	h   *Hierarchy
	d   *DUnit
	ac  *attrib.Collector
	cyc uint64
}

func newFillRig(t *testing.T, mut func(*Config)) *fillRig {
	t.Helper()
	cfg := DefaultConfig()
	cfg.L1DSize = 1024 // 16 direct-mapped blocks: conflicts on demand
	if mut != nil {
		mut(&cfg)
	}
	h, err := NewHierarchy(1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ac := attrib.NewCollector()
	h.SetMetrics(&metrics.Collector{Attrib: ac})
	return &fillRig{t: t, h: h, d: h.DUnit(0), ac: ac}
}

// access issues one access and runs the hierarchy until it completes.
func (r *fillRig) access(addr uint64, kind AccessKind, src Source, pc int) *Request {
	r.t.Helper()
	r.h.BeginCycle(r.cyc)
	req := r.d.Access(r.cyc, addr, kind, src, pc)
	r.h.Tick(r.cyc)
	r.cyc++
	for i := 0; i < 600 && !req.Done; i++ {
		r.h.BeginCycle(r.cyc)
		r.h.Tick(r.cyc)
		r.cyc++
	}
	if !req.Done {
		r.t.Fatalf("access to %#x never completed", addr)
	}
	return req
}

// drain runs n idle cycles (lets prefetch fills land).
func (r *fillRig) drain(n int) {
	for i := 0; i < n; i++ {
		r.h.BeginCycle(r.cyc)
		r.h.Tick(r.cyc)
		r.cyc++
	}
}

func (r *fillRig) report() *attrib.Report {
	r.t.Helper()
	rep := r.ac.Report(r.cyc)
	if err := rep.CheckInternal(); err != nil {
		r.t.Fatal(err)
	}
	return rep
}

func TestFillDemand(t *testing.T) {
	for _, side := range []SideBufKind{SideNone, SideWEC, SideVC, SidePB} {
		r := newFillRig(t, func(c *Config) { c.Side = side })
		r.access(0x1000, Load, SrcDemand, 3)
		if !r.d.L1().Probe(0x1000) {
			t.Errorf("side=%v: demand fill not in L1", side)
		}
		rep := r.report()
		if rep.DemandFills != 1 || rep.SpecFills.Total() != 0 {
			t.Errorf("side=%v: demand=%d spec=%+v", side, rep.DemandFills, rep.SpecFills)
		}
	}
}

func TestFillDemandVictimCapture(t *testing.T) {
	// A demand fill's L1 victim is captured by the WEC and VC, but not by
	// the PB or a WEC with the victim role ablated.
	cases := []struct {
		name     string
		mut      func(*Config)
		captured bool
	}{
		{"wec", func(c *Config) { c.Side = SideWEC }, true},
		{"vc", func(c *Config) { c.Side = SideVC }, true},
		{"pb", func(c *Config) { c.Side = SidePB }, false},
		{"wec-novictim", func(c *Config) { c.Side = SideWEC; c.WECNoVictim = true }, false},
		{"none", nil, false},
	}
	for _, tc := range cases {
		r := newFillRig(t, tc.mut)
		r.access(0x0, Load, SrcDemand, 3)
		r.access(0x400, Load, SrcDemand, 4) // conflicts in the 1KB DM L1
		got := r.d.Side() != nil && r.d.Side().Probe(0x0)
		if got != tc.captured {
			t.Errorf("%s: victim captured = %v, want %v", tc.name, got, tc.captured)
		}
		rep := r.report()
		if wantV := uint64(0); tc.captured {
			wantV = 1
			if rep.VictimInserts != wantV {
				t.Errorf("%s: victim inserts = %d", tc.name, rep.VictimInserts)
			}
		}
	}
}

func TestFillWrongRouting(t *testing.T) {
	// Where a wrong-execution fill lands, per configuration.
	cases := []struct {
		name         string
		mut          func(*Config)
		inL1, inSide bool
		origin       string // expected nonzero spec origin, "" = dropped
	}{
		{"wec", func(c *Config) { c.Side = SideWEC }, false, true, "wrong_path"},
		{"pb", func(c *Config) { c.Side = SidePB }, false, true, "wrong_path"},
		{"vc", func(c *Config) { c.Side = SideVC }, false, false, ""},
		{"none", nil, false, false, ""},
		{"none-fills-l1", func(c *Config) { c.WrongFillsToL1 = true }, true, false, "wrong_path"},
		{"vc-fills-l1", func(c *Config) { c.Side = SideVC; c.WrongFillsToL1 = true }, true, false, "wrong_path"},
	}
	for _, tc := range cases {
		r := newFillRig(t, tc.mut)
		r.access(0x2000, Load, SrcWrongPath, 7)
		if got := r.d.L1().Probe(0x2000); got != tc.inL1 {
			t.Errorf("%s: in L1 = %v, want %v", tc.name, got, tc.inL1)
		}
		if got := r.d.Side() != nil && r.d.Side().Probe(0x2000); got != tc.inSide {
			t.Errorf("%s: in side = %v, want %v", tc.name, got, tc.inSide)
		}
		rep := r.report()
		if tc.origin == "" {
			if rep.SpecFills.Total() != 0 {
				t.Errorf("%s: dropped fill recorded: %+v", tc.name, rep.SpecFills)
			}
		} else if rep.SpecFills.WrongPath != 1 {
			t.Errorf("%s: spec fills = %+v", tc.name, rep.SpecFills)
		}
	}
}

func TestFillWrongThenUseful(t *testing.T) {
	// A correct-path touch of a wrong-fetched WEC block: WrongUseful and the
	// attribution's useful classification must agree.
	r := newFillRig(t, func(c *Config) { c.Side = SideWEC })
	r.access(0x2000, Load, SrcWrongThread, 7)
	r.access(0x2000, Load, SrcDemand, 3)
	if r.d.WrongUseful != 1 {
		t.Errorf("WrongUseful = %d", r.d.WrongUseful)
	}
	if !r.d.L1().Probe(0x2000) { // promoted by the swap
		t.Error("touched block not promoted to L1")
	}
	rep := r.report()
	if rep.Useful.WrongThread != 1 || rep.Useless.Total() != 0 {
		t.Errorf("useful=%+v useless=%+v", rep.Useful, rep.Useless)
	}
}

func TestFillWrongEvictedUseless(t *testing.T) {
	// Wrong fills evicted from a 2-entry WEC untouched are useless.
	r := newFillRig(t, func(c *Config) {
		c.Side = SideWEC
		c.SideEntries = 2
	})
	for i := 0; i < 3; i++ {
		r.access(0x2000+uint64(i)*64, Load, SrcWrongPath, 7)
	}
	rep := r.report()
	if rep.Useless.WrongPath != 1 || rep.Resident.WrongPath != 2 {
		t.Errorf("useless=%+v resident=%+v", rep.Useless, rep.Resident)
	}
}

func TestFillPolluting(t *testing.T) {
	// WrongFillsToL1: a wrong fill displaces a correct-path block from the
	// direct-mapped L1; the prompt re-miss is attributed as pollution.
	r := newFillRig(t, func(c *Config) { c.WrongFillsToL1 = true })
	r.access(0x0, Load, SrcDemand, 3)
	r.access(0x400, Load, SrcWrongPath, 7) // same L1 set
	if r.d.L1().Probe(0x0) {
		t.Fatal("wrong fill did not displace the demand block")
	}
	r.access(0x0, Load, SrcDemand, 3)
	rep := r.report()
	if rep.PollutionEvictions.WrongPath != 1 || rep.Polluting.WrongPath != 1 {
		t.Errorf("evictions=%+v polluting=%+v", rep.PollutionEvictions, rep.Polluting)
	}
}

func TestFillPrefetchOnly(t *testing.T) {
	// nlp: a demand miss issues a tagged next-line prefetch whose fill goes
	// to the prefetch buffer; the later demand touch makes it useful.
	r := newFillRig(t, func(c *Config) {
		c.Side = SidePB
		c.NextLinePrefetch = true
	})
	r.access(0x1000, Load, SrcDemand, 3)
	r.drain(400) // let the prefetch fill land
	if r.d.PrefIssued != 1 {
		t.Fatalf("PrefIssued = %d", r.d.PrefIssued)
	}
	if !r.d.Side().Probe(0x1040) {
		t.Fatal("prefetched block not in the PB")
	}
	rep := r.report()
	if rep.SpecFills.Prefetch != 1 {
		t.Fatalf("spec fills = %+v", rep.SpecFills)
	}
	// The touch: pulls the block into L1 and counts PrefUseful; the next
	// line is prefetched in turn (tagged prefetch chaining).
	r.access(0x1040, Load, SrcDemand, 4)
	if r.d.PrefUseful != 1 {
		t.Errorf("PrefUseful = %d", r.d.PrefUseful)
	}
	if rep := r.ac.Report(r.cyc); rep.Useful.Prefetch != 1 {
		t.Errorf("useful = %+v", rep.Useful)
	}
}

func TestFillWECNextLinePrefetch(t *testing.T) {
	// WEC: a correct hit on a wrong-fetched block prefetches the next line
	// into the WEC, marked wrong so chaining continues (§3.2.1).
	r := newFillRig(t, func(c *Config) { c.Side = SideWEC })
	r.access(0x2000, Load, SrcWrongPath, 7)
	r.access(0x2000, Load, SrcDemand, 3) // WEC hit -> next-line prefetch
	r.drain(400)
	if r.d.PrefIssued != 1 {
		t.Fatalf("PrefIssued = %d", r.d.PrefIssued)
	}
	if !r.d.Side().Probe(0x2040) {
		t.Fatal("next-line block not in the WEC")
	}
	rep := r.report()
	if rep.SpecFills.Prefetch != 1 || rep.SpecFills.WrongPath != 1 {
		t.Errorf("spec fills = %+v", rep.SpecFills)
	}
}

func TestFillLateMerge(t *testing.T) {
	// A wrong-path load opens the MSHR entry; a correct demand to the same
	// block merges into it before the fill: classified late, and the fill
	// itself lands in the L1 as a demand fill.
	r := newFillRig(t, func(c *Config) { c.Side = SideWEC })
	r.h.BeginCycle(r.cyc)
	wrong := r.d.Access(r.cyc, 0x3000, Load, SrcWrongPath, 7)
	r.h.Tick(r.cyc)
	r.cyc++
	r.h.BeginCycle(r.cyc)
	demand := r.d.Access(r.cyc, 0x3000, Load, SrcDemand, 3)
	r.h.Tick(r.cyc)
	r.cyc++
	for i := 0; i < 600 && !(wrong.Done && demand.Done); i++ {
		r.h.BeginCycle(r.cyc)
		r.h.Tick(r.cyc)
		r.cyc++
	}
	if !wrong.Done || !demand.Done {
		t.Fatal("merged requests never completed")
	}
	if !r.d.L1().Probe(0x3000) {
		t.Error("late fill not in L1")
	}
	if r.d.Side().Probe(0x3000) {
		t.Error("late fill duplicated into the WEC")
	}
	rep := r.report()
	if rep.Late.WrongPath != 1 || rep.SpecFills.Total() != 0 || rep.DemandFills != 1 {
		t.Errorf("late=%+v spec=%+v demand=%d", rep.Late, rep.SpecFills, rep.DemandFills)
	}
}
