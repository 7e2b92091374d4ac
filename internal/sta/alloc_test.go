package sta

import (
	"testing"

	"repro/internal/asm"
	"repro/internal/isa"
	"repro/internal/metrics"
)

// allocLoop is a long tight ALU loop: no memory traffic, no forks, so a
// warmed machine steps it in pure steady state for as long as the guard
// needs.
func allocLoop(t testing.TB, iters int64) *isa.Program {
	t.Helper()
	b := asm.New()
	b.Li(1, 0)
	b.Li(2, iters)
	b.Label("loop")
	b.OpI(isa.ADDI, 3, 1, 7)
	b.Op3(isa.XOR, 3, 3, 2)
	b.OpI(isa.ADDI, 1, 1, 1)
	b.Br(isa.BLT, 1, 2, "loop")
	b.Halt()
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestStepSteadyStateZeroAllocs pins the per-cycle allocation cost of the
// uninstrumented machine: with no collector, no trace, no chaos, and no
// progress tap attached, a steady-state cycle must not allocate at all.
// This is the contract the telemetry layer's nil-check hooks ride on — if
// attaching observability moves any per-cycle work onto the heap, or the
// disabled path regresses, this fails before the whole-run allocation pins
// in TestRunCyclesAndAllocsPinned do.
func TestStepSteadyStateZeroAllocs(t *testing.T) {
	cfg := cfgTU(1)
	cfg.NumTUs = 1
	m, err := New(cfg, allocLoop(t, 50_000_000))
	if err != nil {
		t.Fatal(err)
	}
	// Mirror RunContext's setup, then warm up past cold-start growth
	// (caches, queues, pools).
	m.attach()
	m.tus[0].startMain()
	for i := 0; i < 20_000 && !m.halted; i++ {
		m.step()
	}
	if m.halted {
		t.Fatal("warmup exhausted the loop; raise iters")
	}
	allocs := testing.AllocsPerRun(10_000, func() {
		if m.halted {
			t.Fatal("loop halted during the guard; raise iters")
		}
		m.step()
	})
	if allocs != 0 {
		t.Fatalf("steady-state step allocates %.3f allocs/cycle, want 0 with telemetry detached", allocs)
	}
}

// TestStepSteadyStateZeroAllocsWithTap is the same guard with a progress
// tap attached and pre-warmed: publication is two atomic stores plus a
// commit-count sweep — still allocation-free. (publishProgress itself runs
// every 1024 run-loop iterations; here it is called per step to bound its
// own cost, with one forced publication beforehand so the throttle path is
// the one measured.)
func TestStepSteadyStateZeroAllocsWithTap(t *testing.T) {
	cfg := cfgTU(1)
	cfg.NumTUs = 1
	m, err := New(cfg, allocLoop(t, 50_000_000))
	if err != nil {
		t.Fatal(err)
	}
	m.Obs = &metrics.Collector{Tap: &metrics.ProgressTap{}}
	m.attach()
	m.tus[0].startMain()
	for i := 0; i < 20_000 && !m.halted; i++ {
		m.step()
	}
	if m.halted {
		t.Fatal("warmup exhausted the loop; raise iters")
	}
	m.publishProgress(true) // the first publication starts the tap's clock
	allocs := testing.AllocsPerRun(10_000, func() {
		m.step()
		m.publishProgress(false)
	})
	// ~0 rather than 0: a throttle tick may land inside the measured
	// window.
	if allocs > 0.01 {
		t.Fatalf("tapped steady-state step allocates %.3f allocs/cycle, want ~0", allocs)
	}
}
