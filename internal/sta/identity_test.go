package sta_test

import (
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/config"
	"repro/internal/isa"
	"repro/internal/sta"
	"repro/internal/wgen"
	"repro/internal/workload"
)

// TestOneTUConfigIdentities checks configuration identities that hold cycle
// for cycle on a one-TU machine, where a speculation mechanism with nothing
// to act on must change nothing: no other TU exists to run a wrong thread,
// so wth ≡ orig and wth-wp ≡ wp; and a run that issues no wrong-execution
// load leaves the WEC only its victim role, so wth-wp-wec ≡ vc. Each
// identity compares the whole stats.Sim and the memory checksum. The
// inputs are every kernel plus every genome of the committed wgen seed
// corpus.
func TestOneTUConfigIdentities(t *testing.T) {
	type input struct {
		name  string
		build func() (*isa.Program, error)
	}
	var inputs []input
	for _, w := range workload.All() {
		inputs = append(inputs, input{w.Short, func() (*isa.Program, error) { return w.Build(1) }})
	}
	genomes, err := filepath.Glob("../wgen/testdata/corpus/*.wgen")
	if err != nil || len(genomes) == 0 {
		t.Fatalf("wgen corpus: %d genomes (%v)", len(genomes), err)
	}
	for _, path := range genomes {
		g, err := wgen.Load(path)
		if err != nil {
			t.Fatal(err)
		}
		inputs = append(inputs, input{strings.TrimSuffix(filepath.Base(path), ".wgen"), g.Program})
	}
	run := func(t *testing.T, in input, name config.Name) sta.Result {
		t.Helper()
		prog, err := in.build()
		if err != nil {
			t.Fatal(err)
		}
		cfg := config.Main(1)
		if err := config.Apply(name, &cfg); err != nil {
			t.Fatal(err)
		}
		m, err := sta.New(cfg, prog)
		if err != nil {
			t.Fatal(err)
		}
		r, err := m.Run()
		if err != nil {
			t.Fatal(err)
		}
		return *r
	}
	identities := []struct {
		cfg, base config.Name
		noWrong   bool // holds only when cfg's run issued no wrong-execution load
	}{
		{config.WTH, config.Orig, false},
		{config.WTHWP, config.WP, false},
		{config.WTHWPWEC, config.VC, true},
	}
	noWrongRuns := 0
	for _, in := range inputs {
		t.Run(in.name, func(t *testing.T) {
			for _, id := range identities {
				got, want := run(t, in, id.cfg), run(t, in, id.base)
				if id.noWrong {
					if got.Stats.WrongLoads != 0 {
						continue
					}
					noWrongRuns++
				}
				if got.Stats != want.Stats || got.MemCheck != want.MemCheck {
					t.Errorf("%s ≢ %s on 1 TU:\n%s: %+v checksum %#x\n%s: %+v checksum %#x",
						id.cfg, id.base, id.cfg, got.Stats, got.MemCheck, id.base, want.Stats, want.MemCheck)
				}
			}
		})
	}
	// vpr issues no wrong-execution load on 1 TU; without such a kernel the
	// WEC identity would check nothing.
	if noWrongRuns == 0 {
		t.Error("no kernel ran wth-wp-wec without a wrong-execution load")
	}
}
