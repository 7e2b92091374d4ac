package sta

import (
	"fmt"
	"reflect"
	"testing"
	"unsafe"

	"repro/internal/asm"
	"repro/internal/interp"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/sample"
)

// scaleLoop builds a parallel loop with independent iterations:
// arr[i] = f(arr[i], i), with a divide chain making each iteration heavy
// enough that thread-level parallelism pays off.
func scaleLoop(t testing.TB, n int) *isa.Program {
	b := asm.New()
	arr := b.Alloc("arr", 8*(n+80), 0)
	for i := 0; i < n; i++ {
		b.InitWord(arr+uint64(8*i), int64(1000+i*17))
	}
	b.Li(1, 0)          // i (continuation var)
	b.Li(2, int64(n))   // n
	b.Li(3, int64(arr)) // base
	b.Begin(1, 2, 3)
	b.Label("body")
	b.Op3(isa.ADD, 9, 1, 0)  // r9 = my i
	b.OpI(isa.ADDI, 1, 1, 1) // r1 = i+1 for the child
	b.Fork("body")
	b.Tsagd()
	// Computation: v = arr[i]; v = v/3/2 + i; arr[i] = v.
	b.OpI(isa.SLLI, 5, 9, 3)
	b.Op3(isa.ADD, 5, 5, 3)
	b.Ld(6, 0, 5)
	b.Li(7, 3)
	b.Op3(isa.DIV, 6, 6, 7)
	b.Li(7, 2)
	b.Op3(isa.DIV, 6, 6, 7)
	b.Op3(isa.ADD, 6, 6, 9)
	b.St(6, 0, 5)
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

// prefixLoop builds a parallel loop with a cross-iteration dependence
// carried through target stores: cell[i] = cell[i-1] + arr[i].
func prefixLoop(t testing.TB, n int) *isa.Program {
	b := asm.New()
	arr := b.Alloc("arr", 8*(n+80), 0)
	cell := b.Alloc("cell", 8*(n+80), 0)
	for i := 0; i < n; i++ {
		b.InitWord(arr+uint64(8*i), int64(i+1))
	}
	b.Li(1, 0)           // i
	b.Li(2, int64(n))    // n
	b.Li(3, int64(arr))  // arr base
	b.Li(7, int64(cell)) // cell base
	b.Begin(1, 2, 3, 7)
	b.Label("body")
	b.Op3(isa.ADD, 9, 1, 0)
	b.OpI(isa.ADDI, 1, 1, 1)
	b.Fork("body")
	// TSAG: announce my target store cell[i].
	b.OpI(isa.SLLI, 11, 9, 3)
	b.Op3(isa.ADD, 11, 11, 7)
	b.Tsa(0, 11)
	b.Tsagd()
	// Computation: prev = i == 0 ? 0 : cell[i-1].
	b.Br(isa.BEQ, 9, 0, "first")
	b.Ld(12, -8, 11)
	b.Jmp("sum")
	b.Label("first")
	b.Li(12, 0)
	b.Label("sum")
	b.OpI(isa.SLLI, 13, 9, 3)
	b.Op3(isa.ADD, 13, 13, 3)
	b.Ld(14, 0, 13)
	b.Op3(isa.ADD, 15, 12, 14)
	b.Tst(15, 0, 11)
	b.Br(isa.BLT, 1, 2, "cont")
	b.Abort()
	b.Jmp("after")
	b.Label("cont")
	b.Thend()
	b.Label("after")
	// Sequentially read the final prefix into r20 to exercise post-region
	// coherence.
	b.OpI(isa.ADDI, 21, 2, -1)
	b.OpI(isa.SLLI, 21, 21, 3)
	b.Op3(isa.ADD, 21, 21, 7)
	b.Ld(20, 0, 21)
	b.Halt()
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func runMachine(t testing.TB, cfg Config, p *isa.Program) *Result {
	t.Helper()
	m, err := New(cfg, p)
	if err != nil {
		t.Fatal(err)
	}
	r, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func cfgTU(n int) Config {
	cfg := DefaultConfig()
	cfg.NumTUs = n
	cfg.MaxCycles = 20_000_000
	return cfg
}

// TestProgramDecodedOnce checks that a machine decodes its program once:
// every core of an 8-TU machine and the sampled run's functional engine
// read the one array Program.Uops returns.
func TestProgramDecodedOnce(t *testing.T) {
	p := scaleLoop(t, 64)
	m, err := New(cfgTU(8), p)
	if err != nil {
		t.Fatal(err)
	}
	m.Sample = sample.Config{WarmupInsts: 100, MeasureInsts: 200, PeriodInsts: 1000}
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	want := uintptr(unsafe.Pointer(unsafe.SliceData(p.Uops())))
	for i := range m.tus {
		// core.Core keeps its decode unexported; reflect reads the
		// slice's data pointer without copying it.
		if got := reflect.ValueOf(m.tus[i].core).Elem().FieldByName("code").Pointer(); got != want {
			t.Errorf("TU %d decodes its own copy of the program", i)
		}
	}
	// The engine keeps no decode of its own: it runs Prog.Uops.
	if m.eng == nil || m.eng.Prog != p {
		t.Error("the sampled run's functional engine is not over the machine's program")
	}
}

func TestScaleLoopMatchesInterpAcrossTUCounts(t *testing.T) {
	p := scaleLoop(t, 64)
	ref, err := interp.Run(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{1, 2, 4, 8} {
		t.Run(fmt.Sprintf("%dTU", n), func(t *testing.T) {
			r := runMachine(t, cfgTU(n), p)
			if r.MemCheck != ref.MemCheck {
				t.Errorf("memory checksum %#x, interp %#x", r.MemCheck, ref.MemCheck)
			}
		})
	}
}

func TestPrefixLoopDependenceCorrectness(t *testing.T) {
	p := prefixLoop(t, 48)
	ref, err := interp.Run(p)
	if err != nil {
		t.Fatal(err)
	}
	want := int64(48 * 49 / 2)
	if ref.IntRegs[20] != want {
		t.Fatalf("interp r20 = %d, want %d (test program broken)", ref.IntRegs[20], want)
	}
	for _, n := range []int{1, 2, 4, 8} {
		t.Run(fmt.Sprintf("%dTU", n), func(t *testing.T) {
			r := runMachine(t, cfgTU(n), p)
			if r.MemCheck != ref.MemCheck {
				t.Errorf("memory checksum %#x, interp %#x", r.MemCheck, ref.MemCheck)
			}
			if r.IntRegs[20] != want {
				t.Errorf("r20 = %d, want %d", r.IntRegs[20], want)
			}
		})
	}
}

func TestThreadParallelSpeedup(t *testing.T) {
	p := scaleLoop(t, 128)
	seq := runMachine(t, cfgTU(1), p)
	par := runMachine(t, cfgTU(4), p)
	if par.Stats.Cycles >= seq.Stats.Cycles {
		t.Errorf("4 TUs (%d cycles) not faster than 1 TU (%d cycles)",
			par.Stats.Cycles, seq.Stats.Cycles)
	}
	if par.Stats.Forks == 0 {
		t.Error("no forks recorded on the parallel machine")
	}
}

func TestWrongThreadExecution(t *testing.T) {
	p := scaleLoop(t, 64)
	ref, _ := interp.Run(p)

	cfg := cfgTU(4)
	cfg.WrongThreadExec = true
	cfg.Mem.Side = mem.SideWEC
	r := runMachine(t, cfg, p)
	if r.Stats.WrongThreads == 0 {
		t.Error("wth configuration produced no wrong threads")
	}
	if r.Stats.WrongThLoads == 0 {
		t.Error("wrong threads issued no wrong loads")
	}
	if r.MemCheck != ref.MemCheck {
		t.Error("wrong-thread execution changed architectural memory")
	}
}

func TestAllConfigsSameResult(t *testing.T) {
	// The paper's invariant: every processor configuration produces
	// identical architectural results; only timing differs.
	p := prefixLoop(t, 32)
	ref, _ := interp.Run(p)
	type variant struct {
		name string
		mut  func(*Config)
	}
	variants := []variant{
		{"orig", func(c *Config) {}},
		{"vc", func(c *Config) { c.Mem.Side = mem.SideVC }},
		{"wp", func(c *Config) { c.Core.WrongPathExec = true; c.Mem.WrongFillsToL1 = true }},
		{"wth", func(c *Config) { c.WrongThreadExec = true; c.Mem.WrongFillsToL1 = true }},
		{"wth-wp", func(c *Config) {
			c.WrongThreadExec = true
			c.Core.WrongPathExec = true
			c.Mem.WrongFillsToL1 = true
		}},
		{"wth-wp-vc", func(c *Config) {
			c.WrongThreadExec = true
			c.Core.WrongPathExec = true
			c.Mem.WrongFillsToL1 = true
			c.Mem.Side = mem.SideVC
		}},
		{"wth-wp-wec", func(c *Config) {
			c.WrongThreadExec = true
			c.Core.WrongPathExec = true
			c.Mem.Side = mem.SideWEC
		}},
		{"nlp", func(c *Config) { c.Mem.Side = mem.SidePB; c.Mem.NextLinePrefetch = true }},
	}
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			cfg := cfgTU(4)
			v.mut(&cfg)
			r := runMachine(t, cfg, p)
			if r.MemCheck != ref.MemCheck {
				t.Errorf("%s: checksum %#x, interp %#x", v.name, r.MemCheck, ref.MemCheck)
			}
		})
	}
}

func TestSequentialProgramOnManyTUs(t *testing.T) {
	// A program with no parallel region runs on TU0 only.
	b := asm.New()
	a := b.Alloc("x", 64, 0)
	b.Li(1, int64(a))
	b.Li(2, 0)
	b.Li(3, 50)
	b.Label("loop")
	b.Op3(isa.ADD, 4, 4, 2)
	b.St(4, 0, 1)
	b.OpI(isa.ADDI, 2, 2, 1)
	b.Br(isa.BLT, 2, 3, "loop")
	b.Halt()
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	ref, _ := interp.Run(p)
	r := runMachine(t, cfgTU(4), p)
	if r.MemCheck != ref.MemCheck {
		t.Error("sequential program result mismatch")
	}
	if r.Stats.Forks != 0 {
		t.Error("sequential program forked")
	}
}

func TestParCyclesTracked(t *testing.T) {
	p := scaleLoop(t, 64)
	r := runMachine(t, cfgTU(4), p)
	if r.Stats.ParCycles == 0 || r.Stats.ParCycles > r.Stats.Cycles {
		t.Errorf("ParCycles %d of %d cycles", r.Stats.ParCycles, r.Stats.Cycles)
	}
	if r.Stats.ParCommits == 0 || r.Stats.ParCommits > r.Stats.Commits {
		t.Errorf("ParCommits %d of %d", r.Stats.ParCommits, r.Stats.Commits)
	}
}

func TestRepeatedRegions(t *testing.T) {
	// Outer sequential loop invoking the parallel region several times; the
	// BEGIN of each region must clean up leftover wrong threads.
	b := asm.New()
	const n, outer = 24, 4
	arr := b.Alloc("arr", 8*(n+80), 0)
	for i := 0; i < n; i++ {
		b.InitWord(arr+uint64(8*i), int64(i))
	}
	b.Li(25, 0) // outer counter
	b.Label("outer")
	b.Li(1, 0)
	b.Li(2, int64(n))
	b.Li(3, int64(arr))
	b.Begin(1, 2, 3, 25)
	b.Label("body")
	b.Op3(isa.ADD, 9, 1, 0)
	b.OpI(isa.ADDI, 1, 1, 1)
	b.Fork("body")
	b.Tsagd()
	b.OpI(isa.SLLI, 5, 9, 3)
	b.Op3(isa.ADD, 5, 5, 3)
	b.Ld(6, 0, 5)
	b.OpI(isa.ADDI, 6, 6, 1)
	b.St(6, 0, 5)
	b.Br(isa.BLT, 1, 2, "cont")
	b.Abort()
	b.Jmp("after")
	b.Label("cont")
	b.Thend()
	b.Label("after")
	b.OpI(isa.ADDI, 25, 25, 1)
	b.Li(26, outer)
	b.Br(isa.BLT, 25, 26, "outer")
	b.Halt()
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	ref, err := interp.Run(p)
	if err != nil {
		t.Fatal(err)
	}
	cfg := cfgTU(4)
	cfg.WrongThreadExec = true
	cfg.Mem.Side = mem.SideWEC
	cfg.Core.WrongPathExec = true
	r := runMachine(t, cfg, p)
	if r.MemCheck != ref.MemCheck {
		t.Errorf("repeated regions checksum %#x, interp %#x", r.MemCheck, ref.MemCheck)
	}
	if r.Stats.Aborts != outer {
		t.Errorf("aborts = %d, want %d", r.Stats.Aborts, outer)
	}
	// arr[i] must have been incremented exactly `outer` times.
	m, _ := New(cfgTU(1), p)
	_ = m
}

func TestForkDelayCosts(t *testing.T) {
	p := scaleLoop(t, 64)
	fast := cfgTU(4)
	slow := cfgTU(4)
	slow.ForkDelay = 40
	slow.TransferPerValue = 10
	rf := runMachine(t, fast, p)
	rs := runMachine(t, slow, p)
	if rs.Stats.Cycles <= rf.Stats.Cycles {
		t.Errorf("higher fork cost not slower: %d vs %d", rs.Stats.Cycles, rf.Stats.Cycles)
	}
}

func TestConfigValidation(t *testing.T) {
	bad := DefaultConfig()
	bad.NumTUs = 0
	if bad.Validate() == nil {
		t.Error("zero TUs accepted")
	}
	bad = DefaultConfig()
	bad.MemBufEntries = 0
	if bad.Validate() == nil {
		t.Error("zero memory buffer accepted")
	}
	bad = DefaultConfig()
	bad.ForkDelay = -1
	if bad.Validate() == nil {
		t.Error("negative fork delay accepted")
	}
}

func TestRunawayDetection(t *testing.T) {
	b := asm.New()
	b.Label("spin")
	b.Jmp("spin")
	p, _ := b.Build()
	cfg := cfgTU(1)
	cfg.MaxCycles = 5000
	m, err := New(cfg, p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(); err == nil {
		t.Fatal("infinite loop not detected")
	}
}
