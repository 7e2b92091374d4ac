package sta_test

import (
	"testing"

	"repro/internal/config"
	"repro/internal/sta"
	"repro/internal/workload"
)

// TestOneTUConfigIdentities checks configuration identities that hold cycle
// for cycle on a one-TU machine, where a speculation mechanism with nothing
// to act on must change nothing: no other TU exists to run a wrong thread,
// so wth ≡ orig and wth-wp ≡ wp; and a run that issues no wrong-execution
// load leaves the WEC only its victim role, so wth-wp-wec ≡ vc. Each
// identity compares the whole stats.Sim and the memory checksum.
func TestOneTUConfigIdentities(t *testing.T) {
	run := func(t *testing.T, w *workload.Workload, name config.Name) sta.Result {
		t.Helper()
		prog, err := w.Build(1)
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
	for _, w := range workload.All() {
		t.Run(w.Short, func(t *testing.T) {
			for _, id := range identities {
				got, want := run(t, w, id.cfg), run(t, w, id.base)
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
