package wgen_test

import (
	"reflect"
	"testing"

	"repro/internal/attrib"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/metrics"
	"repro/internal/sta"
	"repro/internal/stats"
	"repro/internal/wgen"
)

// simRunner is the RunFunc the tests inject: one WEC-enabled 8-TU machine
// with attribution attached — the configuration under which the coverage
// signal spans all of its dimensions.
func simRunner(t testing.TB) wgen.RunFunc {
	return func(g wgen.Genome, p *isa.Program) (*stats.Sim, *attrib.Report, error) {
		cfg := sta.DefaultConfig()
		cfg.NumTUs = 8
		cfg.MaxCycles = 20_000_000
		cfg.WrongThreadExec = true
		cfg.Core.WrongPathExec = true
		cfg.Mem.Side = mem.SideWEC
		m, err := sta.New(cfg, p)
		if err != nil {
			return nil, nil, err
		}
		ac := attrib.NewCollector()
		m.Obs = &metrics.Collector{Attrib: ac}
		r, err := m.Run()
		if err != nil {
			return nil, nil, err
		}
		return &r.Stats, ac.Report(r.Stats.Cycles), nil
	}
}

func TestSearchDeterministic(t *testing.T) {
	run := func() ([]string, []string) {
		s := wgen.NewSearch(31337, simRunner(t))
		var hashes []string
		for i := 0; i < 25; i++ {
			res, err := s.Step()
			if err != nil {
				t.Fatal(err)
			}
			hashes = append(hashes, res.Genome.Hash())
		}
		return hashes, s.Coverage().Buckets()
	}
	h1, c1 := run()
	h2, c2 := run()
	if !reflect.DeepEqual(h1, h2) {
		t.Fatal("same seed produced different genome trajectories")
	}
	if !reflect.DeepEqual(c1, c2) {
		t.Fatal("same seed produced different coverage")
	}
}

func TestSearchCoverageMonotone(t *testing.T) {
	s := wgen.NewSearch(99, simRunner(t))
	prev := 0
	for i := 0; i < 30; i++ {
		res, err := s.Step()
		if err != nil {
			t.Fatal(err)
		}
		if res.Coverage < prev {
			t.Fatalf("step %d: coverage shrank %d -> %d", i, prev, res.Coverage)
		}
		if res.New > 0 != res.Kept {
			t.Fatalf("step %d: Kept=%v but New=%d", i, res.Kept, res.New)
		}
		prev = res.Coverage
	}
	if s.Steps() != 30 {
		t.Fatalf("Steps = %d, want 30", s.Steps())
	}
	if len(s.Corpus()) == 0 {
		t.Fatal("thirty steps kept no coverage-adding genome")
	}
}

// TestGuidedBeatsRandom is the acceptance assertion for the coverage-guided
// loop: over a size-matched budget (same number of generated programs, same
// runner), the guided search must cover strictly more behavior buckets than
// uniform-random generation. Guidance earns its margin twice over: the
// stratified exploration lattice sweeps every knob's full range on coprime
// strides (marginal bins by construction, where uniform sampling needs
// coupon-collector luck), and crossover targeting composes combination
// buckets (miss rate × branch accuracy, occupancy × WEC activity) from
// parents that cover the row and column separately. Both trajectories are
// fully deterministic, so this is a fixed comparison, not a statistical one.
func TestGuidedBeatsRandom(t *testing.T) {
	if testing.Short() {
		t.Skip("the guided-vs-random comparison needs the full budget to reach the crossover point; run without -short")
	}
	// 300 programs is a conservative proxy for the 60-second soak budget
	// (a 60s run executes thousands); uniform random is already into its
	// saturation tail here while the lattice and the crossover targeting
	// are still earning.
	budget := 300
	run := simRunner(t)

	guided := wgen.NewSearch(2024, run)
	for i := 0; i < budget; i++ {
		if _, err := guided.Step(); err != nil {
			t.Fatal(err)
		}
	}

	random := wgen.NewCoverage()
	for i := 0; i < budget; i++ {
		g := wgen.Random(2024*1e6 + uint64(i))
		p, err := g.Program()
		if err != nil {
			t.Fatal(err)
		}
		sim, rep, err := run(g, p)
		if err != nil {
			t.Fatal(err)
		}
		random.Add(wgen.Buckets(sim, rep))
	}

	g, r := guided.Coverage().Count(), random.Count()
	t.Logf("guided %d buckets vs random %d buckets over %d programs each", g, r, budget)
	if g <= r {
		t.Errorf("guided search covered %d buckets, random covered %d: guidance is not earning its keep", g, r)
	}
}
