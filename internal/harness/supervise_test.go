package harness

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/config"
	"repro/internal/simerr"
	"repro/internal/sta"
)

// smallCfg is a cheap 2-TU machine for supervision tests.
func smallCfg(t *testing.T) sta.Config {
	t.Helper()
	cfg := config.Main(2)
	if err := config.Apply(config.WTHWPWEC, &cfg); err != nil {
		t.Fatal(err)
	}
	return cfg
}

// TestLedgerRoundTripAndTornTail pins the on-disk contract: entries written
// by one process are read back bit-identically by the next, and a torn
// trailing line (a run killed mid-append) is dropped instead of poisoning
// the resume.
func TestLedgerRoundTripAndTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ledger.jsonl")
	led, prior, err := OpenLedger(path, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(prior) != 0 {
		t.Fatalf("fresh ledger has %d entries", len(prior))
	}
	r1 := &sta.Result{MemCheck: 0xabc}
	r1.Stats.Cycles = 123456
	r1.IntRegs[3] = -7
	r2 := &sta.Result{MemCheck: 0xdef}
	r2.Stats.Cycles = 99
	if err := led.Append("cell-a", r1); err != nil {
		t.Fatal(err)
	}
	if err := led.Append("cell-b", r2); err != nil {
		t.Fatal(err)
	}
	if err := led.Close(); err != nil {
		t.Fatal(err)
	}

	// Simulate a kill mid-append: a partial line with no newline.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"key":"cell-c","resu`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	led2, prior2, err := OpenLedger(path, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer led2.Close()
	if len(prior2) != 2 {
		t.Fatalf("reopened ledger has %d entries, want 2 (torn tail dropped)", len(prior2))
	}
	got := prior2["cell-a"]
	if got == nil || *got != *r1 {
		t.Errorf("cell-a did not round-trip: %+v", got)
	}
	if prior2["cell-b"].MemCheck != 0xdef {
		t.Errorf("cell-b did not round-trip")
	}
	// The torn bytes must be gone: appending now yields a parseable file.
	if err := led2.Append("cell-c", r2); err != nil {
		t.Fatal(err)
	}
	led2.Close()
	_, prior3, err := OpenLedger(path, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(prior3) != 3 {
		t.Errorf("after truncate+append: %d entries, want 3", len(prior3))
	}
}

// TestLedgerScaleMismatch: resuming at a different workload scale must be
// refused, not silently mixed.
func TestLedgerScaleMismatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ledger.jsonl")
	led, _, err := OpenLedger(path, 1)
	if err != nil {
		t.Fatal(err)
	}
	led.Close()
	if _, _, err := OpenLedger(path, 2); err == nil {
		t.Fatal("scale-mismatched ledger opened without error")
	}
}

// TestExportFailureQuarantinesIO: a cell whose export write fails (Out is
// a regular file, so no artifact can be created under it) fails with an
// IO-kind error and is quarantined: a second lookup returns the same error
// without simulating again, and a batch counts it as one io failure.
func TestExportFailureQuarantinesIO(t *testing.T) {
	bench := Benches()[0].Short
	cfg := smallCfg(t)
	out := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(out, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	r := NewRunner(1)
	r.Out = out
	_, err := r.Result(bench, cfg)
	if simerr.KindOf(err) != simerr.IO {
		t.Fatalf("export failure kind = %v (%v), want io", simerr.KindOf(err), err)
	}
	// Were the cell simulated again, every run would now panic.
	r.Chaos = chaos.Config{Seed: 1, MachinePanic: 1}
	if _, again := r.Result(bench, cfg); again != err {
		t.Fatalf("second lookup = %v, want the quarantined %v", again, err)
	}
	berr := r.batch([]job{{bench, cfg}})
	se, ok := berr.(*SuiteError)
	if !ok {
		t.Fatalf("batch error %T, want *SuiteError (%v)", berr, berr)
	}
	if kinds := se.Kinds(); se.Total != 1 || len(se.Failures) != 1 || kinds[simerr.IO] != 1 {
		t.Fatalf("SuiteError total %d, kinds %v, want one io failure", se.Total, kinds)
	}
}

// TestResultSupervision covers the isolation contract end to end: a chaos
// panic becomes a Panic-kind error (not a crashed process), the cell is
// quarantined so the next lookup fails fast, and healthy cells in the same
// batch still complete and the batch reports a SuiteError.
func TestResultSupervision(t *testing.T) {
	bench := Benches()[0].Short
	good := smallCfg(t)
	bad := smallCfg(t)
	bad.Mem.L1DSize = 12345 // invalid: rejected by the cache constructor

	r := NewRunner(1)
	err := r.batch([]job{{bench, good}, {bench, bad}})
	se, ok := err.(*SuiteError)
	if !ok {
		t.Fatalf("batch error %T, want *SuiteError (%v)", err, err)
	}
	if len(se.Failures) != 1 || se.Total != 2 {
		t.Fatalf("SuiteError %d/%d failures, want 1/2: %v", len(se.Failures), se.Total, se)
	}
	if kinds := se.Kinds(); kinds[simerr.BadProgram] != 1 {
		t.Errorf("failure kinds = %v, want bad-program", kinds)
	}
	// The healthy cell completed despite its neighbour failing.
	if _, err := r.Result(bench, good); err != nil {
		t.Errorf("healthy cell quarantined too: %v", err)
	}
	// The bad cell fails fast from quarantine now.
	if _, err := r.Result(bench, bad); simerr.KindOf(err) != simerr.BadProgram {
		t.Errorf("quarantined lookup kind = %v", simerr.KindOf(err))
	}

	// Chaos panic isolation.
	rc := NewRunner(1)
	rc.Chaos = chaos.Config{Seed: 1, MachinePanic: 1}
	_, err = rc.Result(bench, good)
	if simerr.KindOf(err) != simerr.Panic {
		t.Fatalf("chaos panic kind = %v (%v)", simerr.KindOf(err), err)
	}
	var e *simerr.Error
	if !errorsAsSim(err, &e) || len(e.Stack) == 0 {
		t.Error("recovered panic lost its stack")
	}
}

// TestRunnerTimeout: a machine slowed by chaos must fail with Timeout when
// the per-run wall-clock budget expires.
func TestRunnerTimeout(t *testing.T) {
	r := NewRunner(1)
	r.Timeout = 5 * time.Millisecond
	r.Chaos = chaos.Config{Seed: 1, SlowCycle: 1, SlowCycleSleep: 50 * time.Microsecond}
	_, err := r.Result(Benches()[0].Short, smallCfg(t))
	if simerr.KindOf(err) != simerr.Timeout {
		t.Fatalf("kind = %v (%v), want Timeout", simerr.KindOf(err), err)
	}
}

// TestChaosDeterministicAcrossRunners: the same seed must fault the same
// cells with the same kinds regardless of process or scheduling, which is
// what makes the CI chaos suite reproducible.
func TestChaosDeterministicAcrossRunners(t *testing.T) {
	bench := Benches()[0].Short
	cfgA := smallCfg(t)
	cfgB := config.Main(2) // orig
	jobs := []job{{bench, cfgA}, {bench, cfgB}}
	collect := func() map[string]simerr.Kind {
		r := NewRunner(1)
		r.Workers = 2
		r.Chaos = chaos.Config{Seed: 42, MachinePanic: 1e-4}
		out := make(map[string]simerr.Kind)
		if err := r.batch(jobs); err != nil {
			se := err.(*SuiteError)
			for k, ferr := range se.Failures {
				out[k] = simerr.KindOf(ferr)
			}
		}
		return out
	}
	first, second := collect(), collect()
	if len(first) != len(second) {
		t.Fatalf("chaos outcomes differ across runs: %v vs %v", first, second)
	}
	for k, kind := range first {
		if second[k] != kind {
			t.Errorf("cell %q: kind %v vs %v", shortKey(k), kind, second[k])
		}
	}
	if len(first) == 0 {
		t.Log("note: seed 42 faulted no cells at this probability")
	}
}

// TestResumeSkipsSimulation: results journaled by one runner are replayed
// bit-identically by a prefilled runner without re-simulating.
func TestResumeSkipsSimulation(t *testing.T) {
	bench := Benches()[0].Short
	cfg := smallCfg(t)
	path := filepath.Join(t.TempDir(), "ledger.jsonl")

	led, _, err := OpenLedger(path, 1)
	if err != nil {
		t.Fatal(err)
	}
	r1 := NewRunner(1)
	r1.Ledger = led
	want, err := r1.Result(bench, cfg)
	if err != nil {
		t.Fatal(err)
	}
	led.Close()

	led2, prior, err := OpenLedger(path, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer led2.Close()
	if len(prior) != 1 {
		t.Fatalf("journal has %d entries, want 1", len(prior))
	}
	r2 := NewRunner(1)
	var progress bytes.Buffer
	r2.Verbose = &progress
	r2.Prefill(prior)
	got, err := r2.Result(bench, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if *got != *want {
		t.Errorf("resumed result diverges:\nwant %+v\n got %+v", want, got)
	}
	if progress.Len() != 0 {
		t.Errorf("prefilled cell was re-simulated: %s", progress.String())
	}
}

// TestSupervisedBitIdentical: with chaos off, the whole supervision stack
// (context, timeout, ledger journaling) must not change a single counter
// relative to a bare runner.
func TestSupervisedBitIdentical(t *testing.T) {
	bench := Benches()[0].Short
	cfg := smallCfg(t)

	bare := NewRunner(1)
	want, err := bare.Result(bench, cfg)
	if err != nil {
		t.Fatal(err)
	}

	led, _, err := OpenLedger(filepath.Join(t.TempDir(), "l.jsonl"), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer led.Close()
	sup := NewRunner(1)
	sup.Timeout = time.Hour
	sup.Ledger = led
	got, err := sup.Result(bench, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if *got != *want {
		t.Errorf("supervision perturbed the run:\nbare %+v\n sup %+v", want.Stats, got.Stats)
	}
}

// errorsAsSim is a local unwrap helper mirroring errors.As for *simerr.Error.
func errorsAsSim(err error, target **simerr.Error) bool {
	for e := err; e != nil; {
		if se, ok := e.(*simerr.Error); ok {
			*target = se
			return true
		}
		u, ok := e.(interface{ Unwrap() error })
		if !ok {
			return false
		}
		e = u.Unwrap()
	}
	return false
}
