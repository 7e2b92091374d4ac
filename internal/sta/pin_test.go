package sta_test

import (
	"runtime"
	"testing"

	"repro/internal/asm"
	"repro/internal/config"
	"repro/internal/isa"
	"repro/internal/metrics"
	"repro/internal/sample"
	"repro/internal/sta"
	"repro/internal/stats"
	"repro/internal/workload"
)

// pinCase is one whole-machine run with its pinned outcome: the exact
// simulated cycle count, the heap allocations of sta.New plus Run and, for
// a sampled run, the exact whole-run estimates.
type pinCase struct {
	name   string
	bench  string      // workload short name; "" runs cycleLoop
	cfg    config.Name // "" keeps config.Main's defaults
	tus    int
	attach func(*sta.Machine) // optional instrumentation or sampling
	cycles uint64
	allocs float64
	est    *stats.Sampled // sampled runs only; see estimates
}

// estimates keeps the nine point-estimate and interval fields of sp, the
// part of a sampled run's report the bootstrap computes.
func estimates(sp *stats.Sampled) stats.Sampled {
	return stats.Sampled{
		EstCycles: sp.EstCycles, EstCyclesLo: sp.EstCyclesLo, EstCyclesHi: sp.EstCyclesHi,
		IPC: sp.IPC, IPCLo: sp.IPCLo, IPCHi: sp.IPCHi,
		L1DMiss: sp.L1DMiss, L1DMissLo: sp.L1DMissLo, L1DMissHi: sp.L1DMissHi,
	}
}

// pinCases cover every figure benchmark on the headline wth-wp-wec machine,
// the orig baseline at 8 and 1 TUs, the headline run with a metrics
// collector, a progress tap and sampling (default and explicit bootstrap
// seed) attached, the machine widened to 16 and 32 TUs, and the ALU cycle
// loop. The allocation budgets were recorded with GOMAXPROCS=1, which
// testing.AllocsPerRun also sets.
func pinCases() []pinCase {
	sampled := func(seed uint64) func(*sta.Machine) {
		return func(m *sta.Machine) {
			m.Sample = sample.Config{WarmupInsts: 1000, MeasureInsts: 2000, PeriodInsts: 12000, Seed: seed}
		}
	}
	return []pinCase{
		{"vpr/wth-wp-wec/8tu", "vpr", config.WTHWPWEC, 8, nil, 107076, 314, nil},
		{"gzip/wth-wp-wec/8tu", "gzip", config.WTHWPWEC, 8, nil, 69415, 309, nil},
		{"mcf/wth-wp-wec/8tu", "mcf", config.WTHWPWEC, 8, nil, 148836, 335, nil},
		{"parser/wth-wp-wec/8tu", "parser", config.WTHWPWEC, 8, nil, 138473, 350, nil},
		{"equake/wth-wp-wec/8tu", "equake", config.WTHWPWEC, 8, nil, 160259, 382, nil},
		{"mesa/wth-wp-wec/8tu", "mesa", config.WTHWPWEC, 8, nil, 318566, 350, nil},
		{"mcf/orig/8tu", "mcf", config.Orig, 8, nil, 186528, 306, nil},
		{"gzip/orig/1tu", "gzip", config.Orig, 1, nil, 61747, 78, nil},
		{"mcf/wth-wp-wec/8tu+metrics", "mcf", config.WTHWPWEC, 8,
			func(m *sta.Machine) { m.Obs = metrics.NewCollector(10000) }, 148836, 815, nil},
		{"mcf/wth-wp-wec/8tu+tap", "mcf", config.WTHWPWEC, 8,
			func(m *sta.Machine) { m.Obs = &metrics.Collector{Tap: &metrics.ProgressTap{}} }, 148836, 337, nil},
		{"mcf/wth-wp-wec/16tu", "mcf", config.WTHWPWEC, 16, nil, 78534, 648, nil},
		{"mcf/wth-wp-wec/32tu", "mcf", config.WTHWPWEC, 32, nil, 75005, 1190, nil},
		{"mcf/wth-wp-wec/8tu+sampled", "mcf", config.WTHWPWEC, 8, sampled(0), 18546, 227, &stats.Sampled{
			EstCycles: 79319.79390432728, EstCyclesLo: 77024.95789291285, EstCyclesHi: 82224.87707692308,
			IPC: 2.4419900497512437, IPCLo: 2.3305844388669774, IPCHi: 2.5378188214599824,
			L1DMiss: 0.015440877691995123, L1DMissLo: 0.0009615384615384616, L1DMissHi: 0.04786990380210719,
		}},
		{"mcf/wth-wp-wec/8tu+sampled-seed99", "mcf", config.WTHWPWEC, 8, sampled(99), 18546, 227, &stats.Sampled{
			EstCycles: 79319.79390432728, EstCyclesLo: 77028.45158605382, EstCyclesHi: 82224.87707692308,
			IPC: 2.4419900497512437, IPCLo: 2.3305844388669774, IPCHi: 2.537667214268951,
			L1DMiss: 0.015440877691995123, L1DMissLo: 0.0009615384615384616, L1DMissHi: 0.04809894640403115,
		}},
		{"cycle-loop/1tu", "", "", 1, nil, 100423, 36, nil},
	}
}

// cycleLoop is a 100k-iteration sequential ALU loop on one TU: it keeps the
// pipeline busy every cycle with no memory or threading activity, so it pins
// the bare cycle loop.
func cycleLoop(t testing.TB) *isa.Program {
	t.Helper()
	b := asm.New()
	b.Li(1, 0)
	b.Li(2, 100_000)
	b.Label("loop")
	b.Op3(isa.ADD, 3, 1, 2)
	b.Op3(isa.XOR, 4, 3, 1)
	b.OpI(isa.SLLI, 5, 4, 1)
	b.Op3(isa.SUB, 6, 5, 3)
	b.OpI(isa.ADDI, 1, 1, 1)
	b.Br(isa.BLT, 1, 2, "loop")
	b.Halt()
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestRunCyclesAndAllocsPinned is the deterministic whole-run gate. The
// simulated cycle count must match exactly: any change to one is a timing
// model change and must update this table deliberately. A sampled run's
// estimates must match bit for bit too. The allocations of sta.New plus Run
// may not exceed the recorded budget by more than 10%.
// Under the race detector only cycles are pinned, since its instrumentation
// changes allocation counts.
func TestRunCyclesAndAllocsPinned(t *testing.T) {
	for _, c := range pinCases() {
		t.Run(c.name, func(t *testing.T) {
			var prog *isa.Program
			if c.bench == "" {
				prog = cycleLoop(t)
			} else {
				w, err := workload.ByName(c.bench)
				if err != nil {
					t.Fatal(err)
				}
				if prog, err = w.Build(1); err != nil {
					t.Fatal(err)
				}
			}
			cfg := config.Main(c.tus)
			if c.cfg != "" {
				if err := config.Apply(c.cfg, &cfg); err != nil {
					t.Fatal(err)
				}
			}
			var cycles uint64
			var sp *stats.Sampled
			run := func() {
				m, err := sta.New(cfg, prog)
				if err != nil {
					t.Fatal(err)
				}
				if c.attach != nil {
					c.attach(m)
				}
				r, err := m.Run()
				if err != nil {
					t.Fatal(err)
				}
				cycles, sp = r.Stats.Cycles, r.Stats.Sampled
			}
			if sta.RaceMode {
				run()
			} else if allocs := testing.AllocsPerRun(1, run); allocs > c.allocs*1.10 {
				t.Errorf("%.0f allocs per run, budget %.0f (+10%%)", allocs, c.allocs)
			}
			if cycles != c.cycles {
				t.Errorf("%d simulated cycles, pinned %d", cycles, c.cycles)
			}
			if c.est != nil {
				if sp == nil {
					t.Fatal("sampled run reported no estimate")
				}
				if got := estimates(sp); got != *c.est {
					t.Errorf("sampled estimates\n got %+v\nwant %+v", got, *c.est)
				}
			}
		})
	}
}

// TestNewBytesPinned pins the heap bytes one sta.New allocates for the
// headline mcf wth-wp-wec machine at 8 and 32 TUs: the per-TU branch
// hardware, caches and reorder buffer, which multiply with the thread
// count. The program's decode is shared and made by the warm-up call, and
// its data pages are mapped rather than copied, so neither is counted. The bytes may not exceed the recorded budget by more
// than 10%.
func TestNewBytesPinned(t *testing.T) {
	if sta.RaceMode {
		t.Skip("the race detector changes allocation sizes")
	}
	w, err := workload.ByName("mcf")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := w.Build(1)
	if err != nil {
		t.Fatal(err)
	}
	// One P, as testing.AllocsPerRun uses, keeps other goroutines'
	// allocations out of the count.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, c := range []struct {
		tus   int
		bytes uint64
	}{{8, 270584}, {32, 1017208}} {
		cfg := config.Main(c.tus)
		if err := config.Apply(config.WTHWPWEC, &cfg); err != nil {
			t.Fatal(err)
		}
		newMachine := func() {
			if _, err := sta.New(cfg, prog); err != nil {
				t.Fatal(err)
			}
		}
		newMachine()
		const runs = 10
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range runs {
			newMachine()
		}
		runtime.ReadMemStats(&after)
		if got := (after.TotalAlloc - before.TotalAlloc) / runs; float64(got) > float64(c.bytes)*1.10 {
			t.Errorf("%d TUs: sta.New allocates %d bytes, budget %d (+10%%)", c.tus, got, c.bytes)
		}
	}
}
