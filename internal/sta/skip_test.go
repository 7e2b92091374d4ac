package sta

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"repro/internal/asm"
	"repro/internal/attrib"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/metrics"
	"repro/internal/sample"
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
		ac = attrib.NewCollector()
		col.Attrib = ac
		m.Obs = col
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

// wecCfg is the wth-wp-wec machine with tus thread units.
func wecCfg(tus int) Config {
	cfg := cfgTU(tus)
	cfg.WrongThreadExec = true
	cfg.Core.WrongPathExec = true
	cfg.Mem.Side = mem.SideWEC
	return cfg
}

// wthCfg is the 8-TU wth machine: aborts mark successors wrong, and wrong
// fills go to L1.
func wthCfg() Config {
	cfg := cfgTU(8)
	cfg.WrongThreadExec = true
	cfg.Mem.WrongFillsToL1 = true
	return cfg
}

// benchProg builds the named figure benchmark at scale 1.
func benchProg(t testing.TB, short string) *isa.Program {
	t.Helper()
	w, err := workload.ByName(short)
	if err != nil {
		t.Fatal(err)
	}
	p, err := w.Build(1)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestSkipEquivalenceMatrix runs the event-skip net over real workloads:
// skipping idle spans and letting idle thread units sleep must be
// bit-identical to stepping every TU every cycle — stats, memory image,
// architectural registers, metrics JSON, attribution JSON — both bare and
// with observability attached. The matrix covers every figure benchmark
// plus one synthesized genome on the 8-TU wth-wp-wec machine; mcf and
// equake on the 16- and 32-TU rings; and mcf and equake under orig (aborts
// kill successors) and wth (aborts mark them wrong), the two touch paths
// one thread unit takes into another's state.
func TestSkipEquivalenceMatrix(t *testing.T) {
	trim := raceMode || testing.Short() // race detector slowdown
	type matrixCase struct {
		name string
		prog *isa.Program
		cfg  Config
	}
	var cases []matrixCase
	benches := workload.All()
	if trim {
		benches = benches[:2]
	}
	for _, w := range benches {
		cases = append(cases, matrixCase{w.Short, benchProg(t, w.Short), wecCfg(8)})
	}
	gp, err := wgen.Random(0xC0FFEE).Program()
	if err != nil {
		t.Fatal(err)
	}
	cases = append(cases, matrixCase{"wgen", gp, wecCfg(8)})
	wide := []string{"mcf", "equake"}
	if trim {
		wide = wide[:1]
	}
	for _, b := range wide {
		p := benchProg(t, b)
		cases = append(cases,
			matrixCase{b + "/16tu", p, wecCfg(16)},
			matrixCase{b + "/orig", p, cfgTU(8)},
			matrixCase{b + "/wth", p, wthCfg()})
		if !trim {
			cases = append(cases, matrixCase{b + "/32tu", p, wecCfg(32)})
		}
	}
	for _, c := range cases {
		p, cfg := c.prog, c.cfg
		t.Run(c.name, func(t *testing.T) {
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

// tsagGapLoop builds a parallel loop whose odd iterations take long over
// their TSAG stage while even ones finish it at once and then sleep on a
// divide chain that feeds their only load. An even thread therefore waits
// for its predecessor's TSAG flag while asleep: the flag's arrival must
// wake it.
func tsagGapLoop(t testing.TB, n int) *isa.Program {
	b := asm.New()
	arr := b.Alloc("arr", 8*(n+8), 0)
	for i := 0; i < n; i++ {
		b.InitWord(arr+uint64(8*i), int64(3*i+1))
	}
	b.Li(1, 0)
	b.Li(2, int64(n))
	b.Li(3, int64(arr))
	b.Begin(1, 2, 3)
	b.Label("body")
	b.Op3(isa.ADD, 9, 1, 0)
	b.OpI(isa.ADDI, 1, 1, 1)
	b.Fork("body")
	b.OpI(isa.ANDI, 10, 9, 1)
	b.Br(isa.BEQ, 10, 0, "tsagd")
	b.Li(11, 1<<30) // odd: a slow TSAG stage
	b.Li(12, 3)
	for k := 0; k < 3; k++ {
		b.Op3(isa.DIV, 11, 11, 12)
	}
	b.Label("tsagd")
	b.Tsagd()
	b.Li(13, 1<<30) // a divide chain that ends in zero feeds the load address
	b.Li(12, 7)
	for k := 0; k < 4; k++ {
		b.Op3(isa.DIV, 13, 13, 12)
	}
	b.Op3(isa.MUL, 13, 13, 0)
	b.OpI(isa.SLLI, 14, 9, 3)
	b.Op3(isa.ADD, 14, 14, 3)
	b.Op3(isa.ADD, 14, 14, 13)
	b.Ld(15, 0, 14)
	b.OpI(isa.ADDI, 15, 15, 1)
	b.St(15, 0, 14)
	b.Br(isa.BLT, 1, 2, "cont")
	b.Abort()
	b.Jmp("after")
	b.Label("cont")
	b.Thend()
	b.Label("after")
	b.Halt()
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// auditCase is one program and machine for TestWakeCacheAudit.
type auditCase struct {
	name string
	prog *isa.Program
	cfg  Config
	smp  sample.Config
}

// TestWakeCacheAudit checks the per-TU wake cache's contract directly: a
// thread unit that neither stepped nor was touched since its bound was
// cached must still compute exactly that bound, and one outside the live
// set must compute neverWake. A mutation of a TU from outside its own step
// that forgets touch shows up here as a changed bound even when it happens
// not to move a result. The loop below is Run's
// stepping loop with the audit between step and skip; the run must then
// match the stepped clock.
func TestWakeCacheAudit(t *testing.T) {
	mp := benchProg(t, "mcf")
	cases := []auditCase{
		{"prefix/4tu", prefixLoop(t, 32), wecCfg(4), sample.Config{}},
		{"tsag-gap/4tu", tsagGapLoop(t, 24), cfgTU(4), sample.Config{}},
		{"scale/8tu", scaleLoop(t, 48), wecCfg(8), sample.Config{}},
		{"mcf/8tu", mp, wecCfg(8), sample.Config{}},
		{"mcf/32tu", mp, wecCfg(32), sample.Config{}},
		{"mcf/orig", mp, cfgTU(8), sample.Config{}},
		{"mcf/wth", mp, wthCfg(), sample.Config{}},
		{"mcf/sampled", mp, wecCfg(8), sampleRegime()},
	}
	for i := 0; i < 8; i++ {
		p, err := wgen.Random(uint64(i)*0x9E3779B97F4A7C15 + 0x5EED).Program()
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, auditCase{fmt.Sprintf("wgen%d", i), p, wecCfg(2 << (i % 3)), sample.Config{}})
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			m, err := New(c.cfg, c.prog)
			if err != nil {
				t.Fatal(err)
			}
			m.Sample = c.smp
			if m.Sample.Enabled() {
				m.initSample()
			}
			m.tus[0].startMain()
			slept := 0   // running TUs the step let sleep
			dropped := 0 // TU-cycles spent outside the live set
			for !m.halted && m.cycle < c.cfg.MaxCycles {
				m.step()
				if m.sampler != nil && !m.halted {
					if err := m.sampleCheck(context.Background()); err != nil {
						t.Fatal(err)
					}
				}
				cyc := m.cycle - 1
				for i := range m.tus {
					tu := &m.tus[i]
					if tu.state == tuRun && m.wake[i] > cyc {
						slept++
					}
					if m.live&(1<<uint(i)) == 0 {
						// Outside the live set: step never visits it, so
						// only neverWake is a sound bound.
						if w := tu.nextWake(cyc); w != neverWake {
							t.Fatalf("cycle %d: tu%d (%s) is outside the live set but its state says wake %d: an outside change skipped touch",
								cyc, tu.id, tuStateNames[tu.state], w)
						}
						dropped++
						continue
					}
					if m.wake[i] <= cyc {
						continue // stale: recomputed by nextWake below
					}
					if w := tu.nextWake(cyc); w != m.wake[i] {
						t.Fatalf("cycle %d: tu%d (%s) cached wake %d, state now says %d: an outside change skipped touch",
							cyc, tu.id, tuStateNames[tu.state], m.wake[i], w)
					}
				}
				if !m.halted {
					m.skipIdle(neverWake)
				}
			}
			if !m.halted {
				t.Fatal("did not halt")
			}
			if slept == 0 {
				t.Error("no running thread unit ever slept: the audit checked nothing")
			}
			if dropped == 0 {
				t.Error("no thread unit ever left the live set: the live-set check checked nothing")
			}
			ref, err := New(c.cfg, c.prog)
			if err != nil {
				t.Fatal(err)
			}
			ref.DisableSkip = true
			ref.Sample = c.smp
			want, err := ref.Run()
			if err != nil {
				t.Fatal(err)
			}
			got := m.result()
			gs, ws := got.Stats, want.Stats
			gs.Sampled, ws.Sampled = nil, nil
			if gs != ws || got.MemCheck != want.MemCheck || got.IntRegs != want.IntRegs {
				t.Errorf("audited run diverges from the stepped clock\nstepped: %+v\naudited: %+v", ws, gs)
			}
			if c.smp.Enabled() && *got.Stats.Sampled != *want.Stats.Sampled {
				t.Errorf("sampled estimates diverge from the stepped clock")
			}
		})
	}
}
