package sta

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/attrib"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/metrics"
	"repro/internal/wgen"
	"repro/internal/workload"
)

// TestEventSkipEquivalence is the correctness net for the idle-cycle
// fast-forward: for every program shape and configuration, a machine that
// skips provably idle spans must produce bit-identical results — stats,
// memory image, architectural registers — to one that steps every cycle.
func TestEventSkipEquivalence(t *testing.T) {
	progs := map[string]*isa.Program{
		"scale":  scaleLoop(t, 48),
		"prefix": prefixLoop(t, 32),
	}
	for name, p := range progs {
		for _, tus := range []int{1, 4, 8} {
			for _, wrong := range []bool{false, true} {
				cfg := cfgTU(tus)
				if wrong {
					cfg.WrongThreadExec = true
					cfg.Core.WrongPathExec = true
					cfg.Mem.Side = mem.SideWEC
				}
				stepped := runObserved(t, cfg, p, false, false).res
				skipped := runObserved(t, cfg, p, true, false).res
				if stepped.Stats != skipped.Stats {
					t.Errorf("%s %dTU wrong=%v: stats diverge\nstepped: %+v\nskipped: %+v",
						name, tus, wrong, stepped.Stats, skipped.Stats)
				}
				if stepped.MemCheck != skipped.MemCheck {
					t.Errorf("%s %dTU wrong=%v: memory %#x vs %#x",
						name, tus, wrong, stepped.MemCheck, skipped.MemCheck)
				}
				if stepped.IntRegs != skipped.IntRegs {
					t.Errorf("%s %dTU wrong=%v: architectural registers diverge",
						name, tus, wrong)
				}
			}
		}
	}
}

// TestEventSkipMetricsEquivalence requires the interval sampler to observe
// the identical stream of samples whether or not idle spans are skipped:
// MaybeSample is replayed for every fast-forwarded cycle, so the exported
// JSON must match byte for byte.
func TestEventSkipMetricsEquivalence(t *testing.T) {
	p := prefixLoop(t, 32)
	for _, tus := range []int{1, 8} {
		cfg := cfgTU(tus)
		cfg.WrongThreadExec = true
		cfg.Core.WrongPathExec = true
		cfg.Mem.Side = mem.SideWEC
		stepped := runObserved(t, cfg, p, false, true)
		skipped := runObserved(t, cfg, p, true, true)
		if !bytes.Equal(stepped.metJS, skipped.metJS) {
			t.Errorf("%dTU: metrics JSON diverges between stepped and skipped runs", tus)
		}
	}
}

// runOut is one run's comparable output: the result plus the metrics and
// attribution JSON exports (nil when observability was not attached).
type runOut struct {
	res          *Result
	metJS, attJS []byte
}

// runObserved runs prog with the event-skip clock live or disabled,
// optionally with a metrics collector (500-cycle interval) and an
// attribution collector attached.
func runObserved(t testing.TB, cfg Config, prog *isa.Program, skip, observe bool) runOut {
	t.Helper()
	m, err := New(cfg, prog)
	if err != nil {
		t.Fatal(err)
	}
	m.DisableSkip = !skip
	var col *metrics.Collector
	var ac *attrib.Collector
	if observe {
		col = metrics.NewCollector(500)
		m.Metrics = col
		ac = attrib.NewCollector()
		m.Attrib = ac
	}
	r, err := m.Run()
	if err != nil {
		t.Fatalf("skip=%v observe=%v: %v", skip, observe, err)
	}
	out := runOut{res: r}
	if col != nil {
		var buf bytes.Buffer
		if err := col.WriteJSON(&buf, r.Stats.Cycles); err != nil {
			t.Fatal(err)
		}
		out.metJS = buf.Bytes()
		var abuf bytes.Buffer
		if err := ac.Report(r.Stats.Cycles).WriteJSON(&abuf); err != nil {
			t.Fatal(err)
		}
		out.attJS = abuf.Bytes()
	}
	return out
}

// TestSkipEquivalenceMatrix runs the event-skip net over real workloads:
// for every figure benchmark plus one synthesized genome on the full
// wth-wp-wec machine, skipping idle spans must be bit-identical to stepping
// every cycle — stats, memory image, architectural registers, metrics JSON,
// attribution JSON — both bare and with observability attached.
func TestSkipEquivalenceMatrix(t *testing.T) {
	benches := workload.All()
	if raceMode || testing.Short() {
		benches = benches[:2] // race detector slowdown: trim the matrix
	}
	type matrixCase struct {
		name string
		prog *isa.Program
	}
	var cases []matrixCase
	for _, w := range benches {
		p, err := w.Build(1)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, matrixCase{w.Short, p})
	}
	gp, err := wgen.Random(0xC0FFEE).Program()
	if err != nil {
		t.Fatal(err)
	}
	cases = append(cases, matrixCase{"wgen", gp})
	for _, c := range cases {
		p := c.prog
		t.Run(c.name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.MaxCycles = 20_000_000
			cfg.WrongThreadExec = true
			cfg.Core.WrongPathExec = true
			cfg.Mem.Side = mem.SideWEC
			for _, observe := range []bool{false, true} {
				ref := runObserved(t, cfg, p, false, observe)
				got := runObserved(t, cfg, p, true, observe)
				tag := fmt.Sprintf("obs=%v", observe)
				if got.res.Stats != ref.res.Stats {
					t.Errorf("%s: stats diverge\nstepped: %+v\nskipped: %+v", tag, ref.res.Stats, got.res.Stats)
				}
				if got.res.MemCheck != ref.res.MemCheck {
					t.Errorf("%s: memory %#x vs %#x", tag, got.res.MemCheck, ref.res.MemCheck)
				}
				if got.res.IntRegs != ref.res.IntRegs {
					t.Errorf("%s: architectural registers diverge", tag)
				}
				if !bytes.Equal(got.metJS, ref.metJS) {
					t.Errorf("%s: metrics JSON diverges", tag)
				}
				if !bytes.Equal(got.attJS, ref.attJS) {
					t.Errorf("%s: attribution JSON diverges", tag)
				}
			}
		})
	}
}
