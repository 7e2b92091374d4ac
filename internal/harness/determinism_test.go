package harness

import (
	"testing"

	"repro/internal/attrib"
	"repro/internal/config"
	"repro/internal/metrics"
	"repro/internal/sta"
	"repro/internal/workload"
)

// runOnce builds a fresh machine for prog and runs it, optionally with
// metrics and attribution collectors attached, bypassing the Runner's
// memoization so repeated runs really repeat the simulation.
func runOnce(t *testing.T, cfg sta.Config, w *workload.Workload, collect bool) *sta.Result {
	t.Helper()
	p, err := w.Build(1)
	if err != nil {
		t.Fatal(err)
	}
	m, err := sta.New(cfg, p)
	if err != nil {
		t.Fatal(err)
	}
	if collect {
		col := metrics.NewCollector(1000)
		col.Attrib = attrib.NewCollector()
		m.Obs = col
	}
	r, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestSimulationDeterminism pins the repeatability contract the whole
// perf-regression net rests on: for every benchmark and for both the orig
// and wth-wp-wec machines, two fresh simulations produce bit-identical
// cycle counts and stats.Sim — and attaching the metrics + attribution
// collectors must not perturb a single counter (collector-identical
// streams). Any map-iteration-order or pointer-identity dependence in the
// hot loops shows up here as a diff.
func TestSimulationDeterminism(t *testing.T) {
	benches := Benches()
	if testing.Short() || raceMode {
		benches = benches[:2]
	}
	for _, w := range benches {
		for _, name := range []config.Name{config.Orig, config.WTHWPWEC} {
			cfg := config.Main(8)
			if err := config.Apply(name, &cfg); err != nil {
				t.Fatal(err)
			}
			bare1 := runOnce(t, cfg, w, false)
			bare2 := runOnce(t, cfg, w, false)
			col1 := runOnce(t, cfg, w, true)
			col2 := runOnce(t, cfg, w, true)
			for i, r := range []*sta.Result{bare2, col1, col2} {
				if r.Stats != bare1.Stats {
					t.Errorf("%s/%s run %d: stats diverge\nfirst: %+v\n this: %+v",
						w.Name, name, i+2, bare1.Stats, r.Stats)
				}
				if r.Stats.Cycles != bare1.Stats.Cycles {
					t.Errorf("%s/%s run %d: %d cycles vs %d",
						w.Name, name, i+2, r.Stats.Cycles, bare1.Stats.Cycles)
				}
				if r.MemCheck != bare1.MemCheck || r.IntRegs != bare1.IntRegs {
					t.Errorf("%s/%s run %d: architectural state diverges", w.Name, name, i+2)
				}
			}
		}
	}
}
