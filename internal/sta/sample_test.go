package sta

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/asm"
	"repro/internal/isa"
	"repro/internal/sample"
	"repro/internal/workload"
)

// mixedProgram alternates long sequential ALU/memory phases with small
// parallel regions, several times over. The sequential phases give the
// sampling controller safepoints to cut at; regimes with short periods
// force fast-forward legs that cross whole parallel regions functionally.
func mixedProgram(t testing.TB, phases, seqIters, parIters int) *isa.Program {
	t.Helper()
	b := asm.New()
	arr := b.Alloc("arr", 8*(parIters+80), 0)
	scratch := b.Alloc("scratch", 8*64, 0)
	for i := 0; i < parIters; i++ {
		b.InitWord(arr+uint64(8*i), int64(1000+i*17))
	}
	for ph := 0; ph < phases; ph++ {
		// Sequential phase: a tight loop with a strided load/store so the
		// fast-forward warming paths (L1D, L1I, predictor) all see traffic.
		b.Li(1, 0)
		b.Li(2, int64(seqIters))
		b.Li(3, int64(scratch))
		seq := fmt.Sprintf("seq%d", ph)
		b.Label(seq)
		b.OpI(isa.ANDI, 4, 1, 63)
		b.OpI(isa.SLLI, 4, 4, 3)
		b.Op3(isa.ADD, 4, 4, 3)
		b.Ld(5, 0, 4)
		b.Op3(isa.ADD, 5, 5, 1)
		b.St(5, 0, 4)
		b.OpI(isa.ADDI, 1, 1, 1)
		b.Br(isa.BLT, 1, 2, seq)
		// Parallel phase: the scaleLoop body over arr.
		b.Li(1, 0)
		b.Li(2, int64(parIters))
		b.Li(3, int64(arr))
		b.Begin(1, 2, 3)
		body := fmt.Sprintf("body%d", ph)
		cont := fmt.Sprintf("cont%d", ph)
		after := fmt.Sprintf("after%d", ph)
		b.Label(body)
		b.Op3(isa.ADD, 9, 1, 0)
		b.OpI(isa.ADDI, 1, 1, 1)
		b.Fork(body)
		b.Tsagd()
		b.OpI(isa.SLLI, 5, 9, 3)
		b.Op3(isa.ADD, 5, 5, 3)
		b.Ld(6, 0, 5)
		b.Li(7, 3)
		b.Op3(isa.DIV, 6, 6, 7)
		b.Op3(isa.ADD, 6, 6, 9)
		b.St(6, 0, 5)
		b.Br(isa.BLT, 1, 2, cont)
		b.Abort()
		b.Jmp(after)
		b.Label(cont)
		b.Thend()
		b.Label(after)
	}
	b.Halt()
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// runSampled runs prog under a sampling regime, with the event-skip clock
// live or disabled.
func runSampled(t testing.TB, cfg Config, prog *isa.Program, sc sample.Config, skip bool) *Result {
	t.Helper()
	m, err := New(cfg, prog)
	if err != nil {
		t.Fatal(err)
	}
	m.DisableSkip = !skip
	m.Sample = sc
	r, err := m.Run()
	if err != nil {
		t.Fatalf("skip=%v: %v", skip, err)
	}
	return r
}

// TestSampledExactEquivalence pins the sampled-exact contract: a regime
// whose single measurement window is the whole run (sample.Exact) never
// fast-forwards, so every deterministic counter, the memory checksum, and
// the architectural registers are byte-identical to a fully detailed run —
// with and without event skip — and the attached estimate
// degenerates to the exact cycle count.
func TestSampledExactEquivalence(t *testing.T) {
	type caseSpec struct {
		name string
		prog *isa.Program
	}
	cases := []caseSpec{
		{"mixed", mixedProgram(t, 2, 2000, 48)},
	}
	for _, w := range workload.All()[:2] {
		p, err := w.Build(1)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, caseSpec{w.Short, p})
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cfg := cfgTU(8)
			cfg.WrongThreadExec = true
			cfg.Core.WrongPathExec = true
			ref := runMachine(t, cfg, c.prog)
			for _, skip := range []bool{true, false} {
				got := runSampled(t, cfg, c.prog, sample.Exact(), skip)
				tag := fmt.Sprintf("skip=%v", skip)
				sp := got.Stats.Sampled
				if sp == nil {
					t.Fatalf("%s: sampled run carries no estimate", tag)
				}
				detail := got.Stats
				detail.Sampled = nil
				if detail != ref.Stats {
					t.Errorf("%s: counters diverge from detailed run\nref: %+v\ngot: %+v", tag, ref.Stats, detail)
				}
				if got.MemCheck != ref.MemCheck || got.IntRegs != ref.IntRegs {
					t.Errorf("%s: architectural state diverges", tag)
				}
				if sp.FFInsts != 0 {
					t.Errorf("%s: exact regime fast-forwarded %d instructions", tag, sp.FFInsts)
				}
				if sp.EstCycles != float64(ref.Stats.Cycles) {
					t.Errorf("%s: estimate %.0f, want exact %d", tag, sp.EstCycles, ref.Stats.Cycles)
				}
			}
		})
	}
}

// sampleRegime is the test regime: small enough windows that a mixed
// program yields many of them, with fast-forward legs crossing parallel
// regions.
func sampleRegime() sample.Config {
	return sample.Config{WarmupInsts: 1000, MeasureInsts: 2000, PeriodInsts: 12000}
}

// TestSamplingDeterminism pins that a sampled run is one deterministic
// simulation: with or without event skip it produces the identical
// estimate, identical detailed counters, and identical architectural
// state. Phase transitions quantize to safepoints, which exist identically
// in both modes.
func TestSamplingDeterminism(t *testing.T) {
	prog := mixedProgram(t, 3, 4000, 48)
	cfg := cfgTU(8)
	cfg.WrongThreadExec = true
	cfg.Core.WrongPathExec = true
	var ref *Result
	for _, skip := range []bool{true, false} {
		got := runSampled(t, cfg, prog, sampleRegime(), skip)
		tag := fmt.Sprintf("skip=%v", skip)
		if got.Stats.Sampled == nil {
			t.Fatalf("%s: no estimate attached", tag)
		}
		if ref == nil {
			ref = got
			if got.Stats.Sampled.FFInsts == 0 {
				t.Fatal("regime never fast-forwarded; the comparison is vacuous")
			}
			if got.Stats.Sampled.Windows < 3 {
				t.Fatalf("only %d windows; the comparison is vacuous", got.Stats.Sampled.Windows)
			}
			continue
		}
		detail, refDetail := got.Stats, ref.Stats
		detail.Sampled, refDetail.Sampled = nil, nil
		if detail != refDetail {
			t.Errorf("%s: detailed counters diverge\nref: %+v\ngot: %+v", tag, refDetail, detail)
		}
		if *got.Stats.Sampled != *ref.Stats.Sampled {
			t.Errorf("%s: estimates diverge\nref: %+v\ngot: %+v", tag, *ref.Stats.Sampled, *got.Stats.Sampled)
		}
		if got.MemCheck != ref.MemCheck || got.IntRegs != ref.IntRegs {
			t.Errorf("%s: architectural state diverges", tag)
		}
	}
}

// TestSamplingArchitecturallyExact pins the property everything else rests
// on: whatever the regime, a sampled run ends with exactly the memory
// image of the detailed run — fast-forward is functional execution of the
// same program, not an approximation of it. (Registers are not compared:
// the detailed machine leaves PoisonValue in registers a FORK mask never
// transferred, so when a fast-forward crosses the final parallel region
// the functional register file legitimately holds real values where the
// detailed one holds poison. Memory is the architectural contract.)
func TestSamplingArchitecturallyExact(t *testing.T) {
	prog := mixedProgram(t, 3, 4000, 48)
	cfg := cfgTU(8)
	ref := runMachine(t, cfg, prog)
	for _, sc := range []sample.Config{
		sampleRegime(),
		{WarmupInsts: 0, MeasureInsts: 500, PeriodInsts: 5000},
		{WarmupInsts: 5000, MeasureInsts: 5000, PeriodInsts: 40000},
	} {
		got := runSampled(t, cfg, prog, sc, true)
		if got.MemCheck != ref.MemCheck {
			t.Errorf("%s: memory checksum %#x, detailed %#x", sc.Key(), got.MemCheck, ref.MemCheck)
		}
	}
}

// TestSamplingAccuracy is the estimator's smoke gate (mirrored by the CI
// sampling-accuracy job): on a mostly sequential program the sampled
// cycle estimate must land near the detailed truth, the detailed coverage
// must actually shrink, and the interval must be ordered around the point
// estimate.
func TestSamplingAccuracy(t *testing.T) {
	prog := mixedProgram(t, 4, 20000, 48)
	cfg := cfgTU(8)
	ref := runMachine(t, cfg, prog)
	sc := sample.Config{WarmupInsts: 2000, MeasureInsts: 4000, PeriodInsts: 40000}
	got := runSampled(t, cfg, prog, sc, true)
	sp := got.Stats.Sampled
	if sp == nil {
		t.Fatal("no estimate attached")
	}
	if sp.Windows < 5 {
		t.Fatalf("only %d windows closed; regime mismatched to program length", sp.Windows)
	}
	if sp.FFInsts == 0 {
		t.Fatal("nothing was fast-forwarded")
	}
	if covered := float64(sp.DetailedInsts) / float64(sp.DetailedInsts+sp.FFInsts); covered > 0.5 {
		t.Errorf("detailed coverage %.0f%%; sampling is not sampling", covered*100)
	}
	truth := float64(ref.Stats.Cycles)
	relErr := (sp.EstCycles - truth) / truth
	if relErr < 0 {
		relErr = -relErr
	}
	if relErr > 0.10 {
		t.Errorf("cycle estimate %.0f vs detailed %.0f: %.1f%% error, want <=10%%",
			sp.EstCycles, truth, relErr*100)
	}
	if !(sp.EstCyclesLo <= sp.EstCycles && sp.EstCycles <= sp.EstCyclesHi) {
		t.Errorf("interval [%.0f, %.0f] does not bracket the estimate %.0f",
			sp.EstCyclesLo, sp.EstCyclesHi, sp.EstCycles)
	}
	if !(sp.IPCLo <= sp.IPC && sp.IPC <= sp.IPCHi) {
		t.Errorf("IPC interval [%.3f, %.3f] does not bracket %.3f", sp.IPCLo, sp.IPCHi, sp.IPC)
	}
	// The detailed run must agree with the sampled run architecturally.
	if got.MemCheck != ref.MemCheck {
		t.Errorf("memory checksum diverges: %#x vs %#x", got.MemCheck, ref.MemCheck)
	}
}

// TestFastForwardZeroAllocs pins the fast-forward hot path: once the
// engine and its warming hooks exist (built at run start), bulk functional
// execution — interpreter steps, cache warming, predictor warming —
// allocates nothing. Sampled throughput rides on this staying true.
func TestFastForwardZeroAllocs(t *testing.T) {
	cfg := cfgTU(2)
	prog := allocLoop(t, 500_000_000)
	m, err := New(cfg, prog)
	if err != nil {
		t.Fatal(err)
	}
	m.Sample = sample.Config{WarmupInsts: 1000, MeasureInsts: 1000, PeriodInsts: 1 << 40}
	m.initSample()
	tu := &m.tus[0]
	m.ffTU = tu.id
	m.eng.Int = &tu.core.IntRegs
	m.eng.FP = &tu.core.FPRegs
	m.eng.Reset(prog.Entry)
	// Prime: first touches allocate memory-image pages and grow cache-side
	// structures; steady state must not.
	if _, err := m.eng.StepN(200_000); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if m.eng.Halted {
			t.Fatal("loop halted during the guard; raise iters")
		}
		if _, err := m.eng.StepN(10_000); err != nil {
			t.Fatal(err)
		}
		m.sampler.AddFF(10_000)
	})
	if allocs != 0 {
		t.Fatalf("fast-forward allocates %.3f allocs per 10k-instruction chunk, want 0", allocs)
	}
}

// TestFastForwardFlushesPeerRefreshes pins the flush contract of
// mem.Hierarchy.WarmSequentialStore from the machine's side: every exit
// from a fast-forward leg (target reached, context cancelled, program
// halted) leaves no peer refresh pending. A missed flush changes no
// simulated cycle count, so only this check would notice it.
func TestFastForwardFlushesPeerRefreshes(t *testing.T) {
	b := asm.New()
	arr := b.Alloc("arr", 16<<10, 0)
	b.Li(1, 0)
	b.Li(2, 300_000)
	b.Li(3, int64(arr))
	b.Label("loop")
	b.OpI(isa.ANDI, 4, 1, 2047)
	b.OpI(isa.SLLI, 4, 4, 3)
	b.Op3(isa.ADD, 4, 4, 3)
	b.St(1, 0, 4)
	b.OpI(isa.ADDI, 1, 1, 1)
	b.Br(isa.BLT, 1, 2, "loop")
	b.Halt()
	prog, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(cfgTU(2), prog)
	if err != nil {
		t.Fatal(err)
	}
	m.Sample = sample.Config{WarmupInsts: 1000, MeasureInsts: 1000, PeriodInsts: 1 << 40}
	m.initSample()
	m.tus[0].startMain()
	tu := m.atSafepoint()
	if tu == nil {
		t.Fatal("a started machine is not at a safepoint")
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, leg := range []struct {
		name string
		ctx  context.Context
		ff   uint64
	}{
		{"target", context.Background(), 20_000},
		{"cancelled", cancelled, 3 * ffChunk},
		{"halted", context.Background(), 1 << 40},
	} {
		err := m.fastForward(leg.ctx, tu, leg.ff)
		if (err != nil) != (leg.ctx == cancelled) {
			t.Fatalf("%s: fastForward error %v", leg.name, err)
		}
		if n := m.hier.PendingWarmStores(); n != 0 {
			t.Errorf("%s: %d peer refreshes still pending after the leg", leg.name, n)
		}
	}
	if !m.halted {
		t.Fatal("the last leg did not run the program to its end")
	}
}
