// The wgen mode: `experiments -run wgen` drives the coverage-guided
// workload-synthesis loop through the full harness — every generated
// program becomes a supervised, memoized cell whose bench name embeds its
// genome hash, so ledger entries and archive manifests of synthesized runs
// are greppable by genome. Each simulated cell is differentially validated
// against the functional reference by the harness; any divergence (or
// panic, or watchdog trip) stops the loop, reports the failing genome's
// canonical line, and exits nonzero.
//
//	experiments -run wgen -wgen-seed 7 -wgen-count 200
//	experiments -run wgen -wgen-seed 7 -wgen-count 200 -wgen-corpus corpus/ -archive runs/
//	experiments -run wgen -wgen-genome 'wgen1 seed=0x1 win=2x4 ...'
package main

import (
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/attrib"
	"repro/internal/config"
	"repro/internal/harness"
	"repro/internal/isa"
	"repro/internal/stats"
	"repro/internal/wgen"
)

type wgenOptions struct {
	seed   uint64
	count  int
	genome string // single canonical line or .wgen file; skips the search
	corpus string // directory for coverage-adding (and failing) genomes
}

// runWgen executes the synthesis loop on an already-configured runner, so
// -ledger, -archive, -chaos-*, -workers, and -telemetry-* compose with it.
func runWgen(r *harness.Runner, opts wgenOptions) int {
	cfg := config.Main(8)
	if err := config.Apply(config.WTHWPWEC, &cfg); err != nil {
		return fail(err)
	}
	// The coverage signal spans its attribution dimensions only with the
	// collector attached.
	r.Attrib = true

	runOne := func(g wgen.Genome, p *isa.Program) (*stats.Sim, *attrib.Report, error) {
		bench := g.BenchName()
		r.RegisterProgram(bench, p)
		res, err := r.Result(bench, cfg)
		if err != nil {
			return nil, nil, err
		}
		rep, err := r.AttribReport(bench, cfg)
		if err != nil {
			return nil, nil, err
		}
		return &res.Stats, rep, nil
	}

	if opts.genome != "" {
		g, err := wgen.Load(opts.genome)
		if err != nil {
			return fail(err)
		}
		p, err := g.Program()
		if err != nil {
			return fail(err)
		}
		sim, rep, err := runOne(g, p)
		if err != nil {
			fmt.Fprintf(os.Stderr, "wgen: %s failed: %v\n", g.Canonical(), err)
			return 1
		}
		sig := wgen.Buckets(sim, rep)
		fmt.Printf("%s\n%s\ncycles %d, commits %d, %d behavior buckets:\n",
			g.BenchName(), g.Canonical(), sim.Cycles, sim.Commits, len(sig))
		for _, b := range sig {
			fmt.Println("  " + b)
		}
		return 0
	}

	s := wgen.NewSearch(opts.seed, runOne)
	var failing *wgen.Genome
	var failErr error
	for i := 0; i < opts.count; i++ {
		res, err := s.Step()
		if err != nil {
			g := res.Genome
			failing, failErr = &g, err
			break
		}
		fmt.Printf("wgen[%04d] %s cov %d (+%d)\n", i, res.Genome.Hash(), res.Coverage, res.New)
	}

	if opts.corpus != "" {
		if err := os.MkdirAll(opts.corpus, 0o755); err != nil {
			return fail(err)
		}
		for _, g := range s.Corpus() {
			path := filepath.Join(opts.corpus, g.Hash()+".wgen")
			if err := os.WriteFile(path, []byte(g.Canonical()+"\n"), 0o644); err != nil {
				return fail(err)
			}
		}
		if failing != nil {
			path := filepath.Join(opts.corpus, "failing-"+failing.Hash()+".wgen")
			if err := os.WriteFile(path, []byte(failing.Canonical()+"\n"), 0o644); err != nil {
				return fail(err)
			}
		}
	}

	st := s.Stats()
	fmt.Printf("wgen: %d programs, %d behavior buckets, corpus %d (explore %d steps +%d, exploit %d steps +%d)\n",
		s.Steps(), s.Coverage().Count(), len(s.Corpus()),
		st.ExploreSteps, st.ExploreGained, st.ExploitSteps, st.ExploitGained)
	if failing != nil {
		fmt.Fprintf(os.Stderr, "wgen: FAILING GENOME %s: %v\n", failing.Canonical(), failErr)
		fmt.Fprintf(os.Stderr, "wgen: replay with: stasim -wgen-genome '%s' -config wth-wp-wec\n", failing.Canonical())
		return 1
	}
	return 0
}
