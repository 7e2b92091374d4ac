package mem

import (
	"math/rand"
	"testing"

	"repro/internal/attrib"
	"repro/internal/metrics"
)

// driveRandom throws a random mix of correct/wrong loads and stores at a
// hierarchy and checks structural invariants after every cycle:
//
//  1. a block is never valid in both the L1 and the side buffer (the
//     paper's swap keeps them exclusive);
//  2. the side buffer never exceeds its entry count;
//  3. every issued request eventually completes with a plausible latency.
//
// An attribution collector rides along; after the run the cross-counter
// invariants between the DUnit statistics and the attribution report are
// asserted (see checkCounterInvariants).
func driveRandom(t *testing.T, cfg Config, seed int64, steps int) {
	t.Helper()
	h, err := NewHierarchy(2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ac := attrib.NewCollector()
	h.SetMetrics(&metrics.Collector{Attrib: ac})
	rng := rand.New(rand.NewSource(seed))
	type pending struct {
		req    *Request
		issued uint64
	}
	var outstanding []pending
	var cyc uint64
	for step := 0; step < steps; step++ {
		h.BeginCycle(cyc)
		for tu := 0; tu < 2; tu++ {
			d := h.DUnit(tu)
			for d.CanAccept() && rng.Intn(2) == 0 {
				addr := uint64(rng.Intn(64)) * 64 * uint64(1+rng.Intn(3))
				kind := Load
				if rng.Intn(4) == 0 {
					kind = Store
				}
				src := SrcDemand
				switch rng.Intn(6) {
				case 0:
					src = SrcWrongPath
				case 1:
					src = SrcWrongThread
				}
				if kind == Store {
					src = SrcDemand
				}
				req := d.Access(cyc, addr, kind, src, rng.Intn(32))
				outstanding = append(outstanding, pending{req, cyc})
			}
		}
		h.Tick(cyc)
		// Invariants.
		for tu := 0; tu < 2; tu++ {
			d := h.DUnit(tu)
			if d.Side() == nil {
				continue
			}
			inL1 := map[uint64]bool{}
			for _, b := range d.L1().ResidentBlocks() {
				inL1[b] = true
			}
			res := d.Side().ResidentBlocks()
			if len(res) > d.Side().Blocks() {
				t.Fatalf("cycle %d: side buffer overfull (%d)", cyc, len(res))
			}
			if cfg.Side == SideWEC || cfg.Side == SideVC {
				for _, b := range res {
					if inL1[b] {
						t.Fatalf("cycle %d tu%d: block %#x in both L1 and side buffer", cyc, tu, b)
					}
				}
			}
		}
		cyc++
	}
	// Drain and check completions.
	for i := 0; i < 1000; i++ {
		h.BeginCycle(cyc)
		h.Tick(cyc)
		cyc++
	}
	for _, p := range outstanding {
		if !p.req.Done {
			t.Fatalf("request for %#x issued at %d never completed", p.req.Addr, p.issued)
		}
		lat := p.req.DoneCycle - p.issued
		if lat > uint64(2*cfg.MemLat) {
			t.Errorf("request for %#x took %d cycles (> 2x MemLat)", p.req.Addr, lat)
		}
	}
	for tu := 0; tu < 2; tu++ {
		checkCounterInvariants(t, h.DUnit(tu))
	}
	rep := ac.Report(cyc)
	if err := rep.CheckInternal(); err != nil {
		t.Errorf("attribution accounting broken: %v", err)
	}
}

// checkCounterInvariants asserts the cross-counter relations that must hold
// for any access mix on any configuration.
func checkCounterInvariants(t *testing.T, d *DUnit) {
	t.Helper()
	if d.WrongUseful > d.SideHits {
		t.Errorf("WrongUseful %d > SideHits %d", d.WrongUseful, d.SideHits)
	}
	if d.PrefUseful > d.PrefIssued {
		t.Errorf("PrefUseful %d > PrefIssued %d", d.PrefUseful, d.PrefIssued)
	}
	if d.SideInserts < d.WrongUseful {
		t.Errorf("SideInserts %d < WrongUseful %d (side hits on wrong-fetched blocks)",
			d.SideInserts, d.WrongUseful)
	}
	if d.Misses > d.Accesses {
		t.Errorf("Misses %d > Accesses %d", d.Misses, d.Accesses)
	}
	if d.SideHits > d.Accesses-d.Misses {
		t.Errorf("SideHits %d > hits %d", d.SideHits, d.Accesses-d.Misses)
	}
	if d.Traffic != d.Accesses+d.WrongAcc {
		t.Errorf("Traffic %d != Accesses %d + WrongAcc %d", d.Traffic, d.Accesses, d.WrongAcc)
	}
}

func TestRandomInvariantsWEC(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Side = SideWEC
	cfg.L1DSize = 1024 // tiny L1 so evictions and swaps are constant
	for seed := int64(0); seed < 6; seed++ {
		driveRandom(t, cfg, seed, 3000)
	}
}

func TestRandomInvariantsVC(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Side = SideVC
	cfg.L1DSize = 1024
	driveRandom(t, cfg, 42, 3000)
}

func TestRandomInvariantsPB(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Side = SidePB
	cfg.NextLinePrefetch = true
	cfg.L1DSize = 1024
	driveRandom(t, cfg, 43, 3000)
}

func TestRandomInvariantsPolluting(t *testing.T) {
	cfg := DefaultConfig()
	cfg.WrongFillsToL1 = true
	cfg.L1DSize = 1024
	driveRandom(t, cfg, 44, 3000)
}

func TestRandomInvariantsAblations(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Side = SideWEC
	cfg.WECNoVictim = true
	cfg.L1DSize = 1024
	driveRandom(t, cfg, 45, 2000)
	cfg.WECNoVictim = false
	cfg.WECNoNextLine = true
	driveRandom(t, cfg, 46, 2000)
}

// TestWECAblationKnobs verifies each knob's direct behavioural effect.
func TestWECAblationKnobs(t *testing.T) {
	mk := func(mut func(*Config)) (*Hierarchy, *DUnit) {
		cfg := DefaultConfig()
		cfg.Side = SideWEC
		if mut != nil {
			mut(&cfg)
		}
		h, err := NewHierarchy(1, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return h, h.DUnit(0)
	}
	fill := func(h *Hierarchy, d *DUnit, addr uint64, src Source) {
		var cyc uint64
		h.BeginCycle(cyc)
		r := d.Access(cyc, addr, Load, src, -1)
		h.Tick(cyc)
		cyc++
		for i := 0; i < 400 && !r.Done; i++ {
			h.BeginCycle(cyc)
			h.Tick(cyc)
			cyc++
		}
	}
	// WECNoVictim: an L1 eviction must not enter the WEC.
	h, d := mk(func(c *Config) { c.WECNoVictim = true })
	fill(h, d, 0x1000, SrcDemand)
	fill(h, d, 0x1000+8192, SrcDemand) // conflicts in the 8KB DM L1
	if d.Side().Probe(0x1000) {
		t.Error("WECNoVictim: victim entered the WEC")
	}
	// WECNoNextLine: a correct hit on a wrong block must not prefetch.
	h, d = mk(func(c *Config) { c.WECNoNextLine = true })
	fill(h, d, 0x2000, SrcWrongPath) // wrong fill into WEC
	h.BeginCycle(10_000)
	d.Access(10_000, 0x2000, Load, SrcDemand, -1) // correct hit in WEC
	h.Tick(10_000)
	if d.PrefIssued != 0 {
		t.Errorf("WECNoNextLine: %d prefetches issued", d.PrefIssued)
	}
}
