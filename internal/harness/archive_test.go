package harness

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/chaos"
	"repro/internal/config"
	"repro/internal/runstore"
	"repro/internal/sta"
	"repro/internal/stats"
)

// TestArchiveManifestOnFreshCell: a runner with an archive attached writes
// one manifest per fresh cell, carrying the same memo key, counters, and
// checksum the ledger journals.
func TestArchiveManifestOnFreshCell(t *testing.T) {
	dir := t.TempDir()
	st, err := runstore.Open(filepath.Join(dir, "runs"))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	bench := Benches()[0].Short
	cfg := smallCfg(t)
	r := NewRunner(1)
	r.Archive = st
	res, err := r.Result(bench, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if st.Len() != 1 {
		t.Fatalf("archive has %d cells, want 1", st.Len())
	}
	m := st.All()[0]
	if m.MemoKey != MemoKey(bench, cfg) {
		t.Errorf("manifest memo key %q does not match harness key", m.MemoKey)
	}
	if m.Stats != res.Stats || m.MemCheck != res.MemCheck {
		t.Errorf("manifest counters diverge from the result")
	}
	if m.Tool != "harness" {
		t.Errorf("default tool %q, want harness", m.Tool)
	}
	if m.Config != "wth-wp-wec" {
		t.Errorf("config inferred as %q", m.Config)
	}
	// A memoized re-request must not duplicate the manifest.
	if _, err := r.Result(bench, cfg); err != nil {
		t.Fatal(err)
	}
	if st.Len() != 1 {
		t.Errorf("memoized re-request grew the archive to %d", st.Len())
	}
}

// TestArchiveResumeConvergesToOneManifestPerCell is the interrupted-sweep
// contract: a sweep killed partway (after journaling and archiving some
// cells — including a torn archive-index tail from the kill) and resumed
// with the ledger's prior results converges on exactly one manifest and
// one per-cell file per cell, with no duplicates from the replayed tail.
func TestArchiveResumeConvergesToOneManifestPerCell(t *testing.T) {
	dir := t.TempDir()
	ledgerPath := filepath.Join(dir, "ledger.jsonl")
	archiveDir := filepath.Join(dir, "runs")
	cfg := smallCfg(t)
	benches := []string{Benches()[0].Short, Benches()[1].Short, Benches()[2].Short}

	// Phase 1: the sweep gets through the first two cells, then is killed —
	// mid-append to the archive index, for good measure.
	led, _, err := OpenLedger(ledgerPath, 1)
	if err != nil {
		t.Fatal(err)
	}
	st, err := runstore.Open(archiveDir)
	if err != nil {
		t.Fatal(err)
	}
	r1 := NewRunner(1)
	r1.Ledger = led
	r1.Archive = st
	for _, b := range benches[:2] {
		if _, err := r1.Result(b, cfg); err != nil {
			t.Fatal(err)
		}
	}
	led.Close()
	st.Close()
	f, err := os.OpenFile(filepath.Join(archiveDir, "index.jsonl"), os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"v":1,"cell_key":"torn`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	// Phase 2: resume. The ledger replays the finished cells; the archive
	// drops its torn tail; the runner re-runs the whole sweep.
	led2, prior, err := OpenLedger(ledgerPath, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer led2.Close()
	if len(prior) != 2 {
		t.Fatalf("ledger replayed %d cells, want 2", len(prior))
	}
	st2, err := runstore.Open(archiveDir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if st2.Len() != 2 {
		t.Fatalf("reopened archive has %d cells, want 2 (archived before journaled)", st2.Len())
	}
	r2 := NewRunner(1)
	r2.Ledger = led2
	r2.Archive = st2
	r2.Prefill(prior)
	for _, b := range benches {
		if _, err := r2.Result(b, cfg); err != nil {
			t.Fatal(err)
		}
	}
	if st2.Len() != 3 {
		t.Fatalf("after resume: %d manifests, want exactly 3 (one per cell)", st2.Len())
	}
	// Exactly one per-cell file per cell, all under one config directory.
	files, err := filepath.Glob(filepath.Join(archiveDir, "c*", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 3 {
		t.Fatalf("archive tree has %d cell files, want 3: %v", len(files), files)
	}
	seen := make(map[string]bool)
	for _, m := range st2.All() {
		if seen[m.CellKey] {
			t.Errorf("duplicate cell key %s", m.CellKey)
		}
		seen[m.CellKey] = true
	}
}

// TestResumeFromArchive: a sweep archived by one runner is answered in full
// by a fresh runner prefilled from ArchivedResults. The second runner
// panics on the first cycle of any simulation, so byte-identical tables
// prove that no cell was simulated. Manifests a detailed runner at this
// scale must not reuse — a sampled estimate, another scale, a missing
// register file — are left out.
func TestResumeFromArchive(t *testing.T) {
	dir := t.TempDir()
	st, err := runstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	exp, err := ByID("fig17")
	if err != nil {
		t.Fatal(err)
	}
	r1 := NewRunner(1)
	r1.Archive = st
	want, err := exp.Run(r1)
	if err != nil {
		t.Fatal(err)
	}
	swept := st.Len()

	// Three manifests that must never come back, each derived from a real
	// cell and given a result that would corrupt the table if reused.
	base := *st.All()[0]
	base.Stats.Cycles++
	rekey := func(m *runstore.Manifest) {
		m.CfgHash = runstore.CfgHash(m.MemoKey)
		m.CellKey = runstore.CellKey(m.Bench, m.Scale, m.CfgHash)
	}
	sampled := base
	sampled.Sampling = stats.SampleKey(500, 1000, 30000)
	sampled.MemoKey += "|" + sampled.Sampling
	rekey(&sampled)
	scale2 := base
	scale2.Scale = 2
	rekey(&scale2)
	noRegs := base
	noRegs.MemoKey = MemoKey(base.Bench, smallCfg(t))
	noRegs.IntRegs = nil
	rekey(&noRegs)
	for _, m := range []*runstore.Manifest{&sampled, &scale2, &noRegs} {
		if err := st.Put(m); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := runstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if st2.Len() != swept+3 {
		t.Fatalf("reopened archive has %d cells, want %d", st2.Len(), swept+3)
	}
	archived := ArchivedResults(st2, 1)
	if len(archived) != len(r1.results) {
		t.Errorf("ArchivedResults returned %d cells, want the %d swept ones", len(archived), len(r1.results))
	}
	for k, res := range r1.results {
		if got := archived[k]; got == nil || *got != *res {
			t.Errorf("archived result for %s diverges from the sweep", shortKey(k))
		}
	}

	r2 := NewRunner(1)
	r2.Chaos = chaos.Config{Seed: 9, MachinePanic: 1}
	r2.Prefill(archived)
	got, err := exp.Run(r2)
	if err != nil {
		t.Fatalf("a cell was simulated instead of answered from the archive: %v", err)
	}
	if got.String() != want.String() || got.CSV() != want.CSV() {
		t.Errorf("resumed tables differ:\n%s\nwant\n%s", got, want)
	}
}

// TestDistributedSweepArchiveLoads opens an archive written by the
// lease-based distributed sweep that earlier versions shipped: a two-cell
// Figure 17 slice simulated by a separate worker process. Its manifests
// must still answer their cells, resume a sweep through ArchivedResults,
// and accept new cells.
func TestDistributedSweepArchiveLoads(t *testing.T) {
	src, err := filepath.Glob(filepath.Join("testdata", "*-archive"))
	if err != nil || len(src) != 1 {
		t.Fatalf("fixture archive: %v %v", src, err)
	}
	// Copy the fixture: opening an archive may rewrite its index.
	dir := t.TempDir()
	err = filepath.WalkDir(src[0], func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(src[0], path)
		dst := filepath.Join(dir, rel)
		if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
			return err
		}
		return os.WriteFile(dst, raw, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	st, err := runstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if st.Len() != 2 {
		t.Fatalf("fixture archive has %d cells, want 2", st.Len())
	}
	archived := ArchivedResults(st, 1)
	if len(archived) != 2 {
		t.Errorf("ArchivedResults returned %d cells, want 2", len(archived))
	}
	for _, name := range []config.Name{config.Orig, config.WTHWPWEC} {
		cfg := config.Main(8)
		if err := config.Apply(name, &cfg); err != nil {
			t.Fatal(err)
		}
		k := MemoKey("vpr", cfg)
		m := st.Get(runstore.CellKey("vpr", 1, runstore.CfgHash(k)))
		if m == nil || m.MemoKey != k {
			t.Fatalf("%s: archive does not answer the cell", name)
		}
		res := archived[k]
		if res == nil {
			t.Fatalf("%s: ArchivedResults skipped the cell", name)
		}
		want := sta.Result{Stats: m.Stats, MemCheck: m.MemCheck}
		copy(want.IntRegs[:], m.IntRegs)
		if *res != want || res.Stats.Cycles == 0 {
			t.Errorf("%s: rebuilt result diverges from the manifest", name)
		}
	}

	r := NewRunner(1)
	r.Archive = st
	if _, err := r.Result(Benches()[0].Short, smallCfg(t)); err != nil {
		t.Fatal(err)
	}
	if st.Len() != 3 {
		t.Errorf("archive has %d cells after a new put, want 3", st.Len())
	}
}
