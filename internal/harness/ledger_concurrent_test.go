package harness

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/sta"
)

// TestLedgerConcurrentInterleavedProducers models a sweep's ledger under a
// worker pool: many producers append concurrently, and — because duplicate
// jobs and resumed runs both re-deliver cells — the same cell may be
// journaled more than once by different producers. The contract is
// convergence: a reopen yields exactly one (deterministic, identical)
// result per cell, no matter how appends interleaved.
func TestLedgerConcurrentInterleavedProducers(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ledger.jsonl")
	led, _, err := OpenLedger(path, 1)
	if err != nil {
		t.Fatal(err)
	}

	const cells = 40
	const producers = 8
	result := func(i int) *sta.Result {
		r := &sta.Result{MemCheck: uint64(i) * 31}
		r.Stats.Cycles = uint64(1000 + i)
		r.IntRegs[1] = int64(i)
		return r
	}
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			// Each producer owns a stripe of cells plus an overlap with the
			// next stripe, so every overlapped cell is appended twice by two
			// distinct interleaved goroutines.
			for i := 0; i < cells; i++ {
				if i%producers != p && (i+1)%producers != p {
					continue
				}
				if err := led.Append(fmt.Sprintf("cell-%02d", i), result(i)); err != nil {
					t.Error(err)
					return
				}
			}
		}(p)
	}
	wg.Wait()
	if err := led.Close(); err != nil {
		t.Fatal(err)
	}

	_, prior, err := OpenLedger(path, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(prior) != cells {
		t.Fatalf("reopened ledger has %d distinct cells, want %d", len(prior), cells)
	}
	for i := 0; i < cells; i++ {
		got := prior[fmt.Sprintf("cell-%02d", i)]
		if got == nil || *got != *result(i) {
			t.Errorf("cell-%02d did not converge: %+v", i, got)
		}
	}
}

// TestLedgerResumeIsByteStable: reopening a ledger (including one with a
// torn tail) settles the file into a stable byte state — a second reopen
// reads and rewrites nothing. This is what makes "SIGKILL the sweep,
// resume, SIGKILL it again" converge instead of drifting.
func TestLedgerResumeIsByteStable(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ledger.jsonl")
	led, _, err := OpenLedger(path, 1)
	if err != nil {
		t.Fatal(err)
	}
	r := &sta.Result{MemCheck: 7}
	r.Stats.Cycles = 42
	if err := led.Append("cell-a", r); err != nil {
		t.Fatal(err)
	}
	if err := led.Close(); err != nil {
		t.Fatal(err)
	}
	clean, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// Tear the tail, as a kill mid-append would.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"key":"cell-b","res`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	for round := 0; round < 2; round++ {
		led, prior, err := OpenLedger(path, 1)
		if err != nil {
			t.Fatal(err)
		}
		if len(prior) != 1 || prior["cell-a"] == nil {
			t.Fatalf("round %d: prior = %v", round, prior)
		}
		if err := led.Close(); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(clean) {
			t.Fatalf("round %d: resumed ledger bytes differ from pre-tear state:\n%q\nwant\n%q", round, got, clean)
		}
	}
}
