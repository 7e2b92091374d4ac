package sta

import (
	"reflect"
	"testing"

	"repro/internal/attrib"
	"repro/internal/interp"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/metrics"
	"repro/internal/wgen"
)

// TestWgenDifferentialSoak is the generator-driven differential soak: the
// randomized-builder soak above promoted to the wgen genome space. At
// least 500 distinct genomes per full run (40 under -short or -race), each
// expanded to a program and executed on a rotating machine shape and
// wrong-execution configuration, requiring the interpreter's exact memory
// image AND complete architectural integer register file. Any divergence
// reports the genome's canonical line so the failing program replays with
// `stasim -wgen-genome '<line>'`.
func TestWgenDifferentialSoak(t *testing.T) {
	n := 500
	if testing.Short() || raceMode {
		n = 40
	}
	shapes := []int{1, 2, 4, 8}
	for i := 0; i < n; i++ {
		g := wgen.Random(uint64(i)*0x9E3779B97F4A7C15 + 0xD1B54A32D192ED03)
		p, err := g.Program()
		if err != nil {
			t.Fatalf("genome %d %s: %v", i, g.Canonical(), err)
		}
		ref, err := interp.Run(p)
		if err != nil {
			t.Fatalf("genome %d %s: interp: %v", i, g.Canonical(), err)
		}
		cfg := cfgTU(shapes[i%len(shapes)])
		switch i % 3 {
		case 1:
			cfg.WrongThreadExec = true
			cfg.Core.WrongPathExec = true
			cfg.Mem.Side = mem.SideWEC
		case 2:
			cfg.Core.WrongPathExec = true
			cfg.Mem.Side = mem.SideVC
		}
		m, err := New(cfg, p)
		if err != nil {
			t.Fatalf("genome %d %s: %v", i, g.Canonical(), err)
		}
		r, err := m.Run()
		if err != nil {
			t.Fatalf("genome %d %s: %v", i, g.Canonical(), err)
		}
		if r.MemCheck != ref.MemCheck {
			t.Fatalf("genome %d (%dTU, mode %d): memory %#x, interp %#x\n%s",
				i, cfg.NumTUs, i%3, r.MemCheck, ref.MemCheck, g.Canonical())
		}
		if r.IntRegs != ref.IntRegs {
			for k := 0; k < isa.NumIntRegs; k++ {
				if r.IntRegs[k] != ref.IntRegs[k] {
					t.Fatalf("genome %d (%dTU, mode %d): r%d = %d, interp %d\n%s",
						i, cfg.NumTUs, i%3, k, r.IntRegs[k], ref.IntRegs[k], g.Canonical())
				}
			}
		}
	}
}

// TestWgenCoverageSignalDeterministic pins the coverage signal: for a
// fixed genome, the behavior signature extracted from the counter and
// attribution registries must be identical with and without event skip —
// the signal depends on what the machine did, never on how it was
// clocked. A nondeterministic signal would make the
// coverage-guided search's trajectory (and the soak-smoke monotonicity
// assertion) irreproducible.
func TestWgenCoverageSignalDeterministic(t *testing.T) {
	g := wgen.Random(424242)
	p, err := g.Program()
	if err != nil {
		t.Fatal(err)
	}
	cfg := cfgTU(8)
	cfg.WrongThreadExec = true
	cfg.Core.WrongPathExec = true
	cfg.Mem.Side = mem.SideWEC
	var ref []string
	for _, skip := range []bool{true, false} {
		out := runObserved(t, cfg, p, skip, true)
		rep := attribReport(t, cfg, p, skip)
		sig := wgen.Buckets(&out.res.Stats, rep)
		if len(sig) == 0 {
			t.Fatalf("skip=%v: empty behavior signature", skip)
		}
		if ref == nil {
			ref = sig
		} else if !reflect.DeepEqual(ref, sig) {
			t.Errorf("skip=%v: signature diverges\nref: %v\ngot: %v", skip, ref, sig)
		}
	}
}

// attribReport reruns prog with only attribution attached and returns the
// sealed report (runObserved keeps its collector private).
func attribReport(t *testing.T, cfg Config, p *isa.Program, skip bool) *attrib.Report {
	t.Helper()
	m, err := New(cfg, p)
	if err != nil {
		t.Fatal(err)
	}
	m.DisableSkip = !skip
	ac := attrib.NewCollector()
	m.Obs = &metrics.Collector{Attrib: ac}
	r, err := m.Run()
	if err != nil {
		t.Fatalf("skip=%v: %v", skip, err)
	}
	return ac.Report(r.Stats.Cycles)
}

// TestWgenWorkloadExercisesSpeculation guards the generator's value to the
// wrong-execution study: across a small genome sample on a WEC-enabled
// machine, at least one genome must produce wrong-execution loads, WEC
// insertions, forks, and mispredicted branches. A generator that never
// reaches the speculative machinery would still pass the differential
// soak — and be useless for the paper's experiments.
func TestWgenWorkloadExercisesSpeculation(t *testing.T) {
	var agg struct{ wrong, wec, forks, misp uint64 }
	for seed := uint64(1); seed <= 12; seed++ {
		g := wgen.Random(seed * 7919)
		p, err := g.Program()
		if err != nil {
			t.Fatal(err)
		}
		cfg := cfgTU(8)
		cfg.WrongThreadExec = true
		cfg.Core.WrongPathExec = true
		cfg.Mem.Side = mem.SideWEC
		r := runMachine(t, cfg, p)
		agg.wrong += r.Stats.WrongLoads
		agg.wec += r.Stats.WECInserts
		agg.forks += r.Stats.Forks
		agg.misp += r.Stats.Mispredicts
	}
	if agg.forks == 0 {
		t.Error("no genome forked a thread")
	}
	if agg.misp == 0 {
		t.Error("no genome mispredicted a branch")
	}
	if agg.wrong == 0 {
		t.Error("no genome issued wrong-execution loads")
	}
	if agg.wec == 0 {
		t.Error("no genome inserted into the WEC")
	}
}
