package sta

import (
	"testing"

	"repro/internal/mem"
	"repro/internal/metrics"
	"repro/internal/trace"
)

// TestTraceLifecycle attaches a Recorder and checks that a parallel run
// emits a coherent thread-lifecycle event stream.
func TestTraceLifecycle(t *testing.T) {
	p := scaleLoop(t, 32)
	cfg := cfgTU(4)
	m, err := New(cfg, p)
	if err != nil {
		t.Fatal(err)
	}
	var rec trace.Recorder
	m.Obs = &metrics.Collector{Events: &rec}
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if rec.Count(trace.Begin) != 1 {
		t.Errorf("begins = %d", rec.Count(trace.Begin))
	}
	if rec.Count(trace.Halt) != 1 {
		t.Errorf("halts = %d", rec.Count(trace.Halt))
	}
	if rec.Count(trace.Abort) != 1 {
		t.Errorf("aborts = %d", rec.Count(trace.Abort))
	}
	forks := rec.Count(trace.Fork)
	starts := rec.Count(trace.ThreadStart)
	if forks == 0 || starts == 0 || starts > forks {
		t.Errorf("forks=%d starts=%d", forks, starts)
	}
	// Every started thread ends exactly one way (retire, kill, or resume);
	// the region's head thread terminates too without a ThreadStart, so
	// one region contributes exactly one extra terminal event.
	ends := rec.Count(trace.Retire) + rec.Count(trace.Kill) + rec.Count(trace.SeqResume)
	if ends != starts+rec.Count(trace.Begin) {
		t.Errorf("starts=%d begins=%d but terminal events=%d",
			starts, rec.Count(trace.Begin), ends)
	}
	// Events are cycle-monotone.
	evs := rec.Events()
	for i := 1; i < len(evs); i++ {
		if evs[i].Cycle < evs[i-1].Cycle {
			t.Fatalf("event %d out of order: %v after %v", i, evs[i], evs[i-1])
		}
	}
}

// TestTraceWrongThreads checks wrong-mark and kill events under wth.
func TestTraceWrongThreads(t *testing.T) {
	p := scaleLoop(t, 64)
	cfg := cfgTU(4)
	cfg.WrongThreadExec = true
	cfg.Mem.Side = mem.SideWEC
	m, err := New(cfg, p)
	if err != nil {
		t.Fatal(err)
	}
	var rec trace.Recorder
	m.Obs = &metrics.Collector{Events: &rec}
	r, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if got := rec.Count(trace.WrongMark); uint64(got) != r.Stats.WrongThreads {
		t.Errorf("wrong marks traced %d, stats say %d", got, r.Stats.WrongThreads)
	}
	// Wrong threads either kill themselves (their own THEND/ABORT) or are
	// still running when the program halts; terminal events never exceed
	// starts.
	starts := rec.Count(trace.ThreadStart)
	ends := rec.Count(trace.Retire) + rec.Count(trace.Kill) + rec.Count(trace.SeqResume)
	if ends > starts {
		t.Errorf("terminal events %d exceed thread starts %d", ends, starts)
	}
}
