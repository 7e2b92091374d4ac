package sta_test

import (
	"testing"

	"repro/internal/asm"
	"repro/internal/config"
	"repro/internal/isa"
	"repro/internal/metrics"
	"repro/internal/sample"
	"repro/internal/sta"
	"repro/internal/workload"
)

// pinCase is one whole-machine run with its pinned outcome: the exact
// simulated cycle count and the heap allocations of sta.New plus Run.
type pinCase struct {
	name   string
	bench  string      // workload short name; "" runs cycleLoop
	cfg    config.Name // "" keeps config.Main's defaults
	tus    int
	attach func(*sta.Machine) // optional instrumentation or sampling
	cycles uint64
	allocs float64
}

// pinCases cover every figure benchmark on the headline wth-wp-wec machine,
// the orig baseline at 8 and 1 TUs, the headline run with a metrics
// collector, a progress tap and sampling attached, the machine widened to 16
// and 32 TUs, and the ALU cycle loop. The allocation budgets were recorded
// with GOMAXPROCS=1, which testing.AllocsPerRun also sets.
func pinCases() []pinCase {
	sampled := func(m *sta.Machine) {
		m.Sample = sample.Config{WarmupInsts: 1000, MeasureInsts: 2000, PeriodInsts: 12000}
	}
	return []pinCase{
		{"vpr/wth-wp-wec/8tu", "vpr", config.WTHWPWEC, 8, nil, 107076, 10385},
		{"gzip/wth-wp-wec/8tu", "gzip", config.WTHWPWEC, 8, nil, 69415, 10442},
		{"mcf/wth-wp-wec/8tu", "mcf", config.WTHWPWEC, 8, nil, 148836, 13844},
		{"parser/wth-wp-wec/8tu", "parser", config.WTHWPWEC, 8, nil, 138473, 10427},
		{"equake/wth-wp-wec/8tu", "equake", config.WTHWPWEC, 8, nil, 160259, 10514},
		{"mesa/wth-wp-wec/8tu", "mesa", config.WTHWPWEC, 8, nil, 318566, 14022},
		{"mcf/orig/8tu", "mcf", config.Orig, 8, nil, 186528, 10454},
		{"gzip/orig/1tu", "gzip", config.Orig, 1, nil, 61747, 1447},
		{"mcf/wth-wp-wec/8tu+metrics", "mcf", config.WTHWPWEC, 8,
			func(m *sta.Machine) { m.Metrics = metrics.NewCollector(10000) }, 148836, 14326},
		{"mcf/wth-wp-wec/8tu+tap", "mcf", config.WTHWPWEC, 8,
			func(m *sta.Machine) { m.Tap = &sta.ProgressTap{} }, 148836, 13849},
		{"mcf/wth-wp-wec/16tu", "mcf", config.WTHWPWEC, 16, nil, 78534, 24844},
		{"mcf/wth-wp-wec/32tu", "mcf", config.WTHWPWEC, 32, nil, 75005, 44703},
		{"mcf/wth-wp-wec/8tu+sampled", "mcf", config.WTHWPWEC, 8, sampled, 18546, 9830},
		{"cycle-loop/1tu", "", "", 1, nil, 100423, 1339},
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
// model change and must update this table deliberately. The allocations of
// sta.New plus Run may not exceed the recorded budget by more than 10%.
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
				cycles = r.Stats.Cycles
			}
			if sta.RaceMode {
				run()
			} else if allocs := testing.AllocsPerRun(1, run); allocs > c.allocs*1.10 {
				t.Errorf("%.0f allocs per run, budget %.0f (+10%%)", allocs, c.allocs)
			}
			if cycles != c.cycles {
				t.Errorf("%d simulated cycles, pinned %d", cycles, c.cycles)
			}
		})
	}
}
