package journal_test

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"repro/internal/config"
	"repro/internal/harness"
	"repro/internal/journal"
	"repro/internal/runstore"
	"repro/internal/sta"
	"repro/internal/telemetry"
)

// The tests below record a journal of each on-disk format built on this
// package, cut it at every byte offset as a kill or power loss could, and
// reopen it through its owner's API: the reopened journal must hold
// exactly a prefix of the recorded entries, and one more append must
// reopen cleanly behind it.

// cutAtEveryOffset writes the first n bytes of full to a file called name
// in a fresh directory for every n, and calls check with that directory
// and the number of whole entries the prefix holds (complete lines after
// the header's). Fresh files keep the loop fast: rewriting one file in
// place makes some filesystems flush it on every close.
func cutAtEveryOffset(t *testing.T, full []byte, name string, header bool, check func(dir string, n, want int)) {
	t.Helper()
	journal.SkipSync(t)
	skip := 0
	if header {
		skip = 1
	}
	base := t.TempDir()
	for n := 0; n <= len(full); n++ {
		dir := filepath.Join(base, strconv.Itoa(n))
		if err := os.Mkdir(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), full[:n], 0o644); err != nil {
			t.Fatal(err)
		}
		check(dir, n, max(0, bytes.Count(full[:n], []byte{'\n'})-skip))
	}
}

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

func TestLedgerEveryOffset(t *testing.T) {
	dir := t.TempDir()
	rec := filepath.Join(dir, "recorded.jsonl")
	keys := []string{"cell-a", "cell-b", "cell-c"}
	led, _, err := harness.OpenLedger(rec, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i, k := range keys {
		r := &sta.Result{MemCheck: uint64(i + 1)}
		r.Stats.Cycles = uint64(1000 * (i + 1))
		if err := led.Append(k, r); err != nil {
			t.Fatal(err)
		}
	}
	led.Close()

	cutAtEveryOffset(t, readFile(t, rec), "ledger.jsonl", true, func(dir string, n, want int) {
		path := filepath.Join(dir, "ledger.jsonl")
		led, prior, err := harness.OpenLedger(path, 1)
		if err != nil {
			t.Fatalf("cut at %d: %v", n, err)
		}
		if len(prior) != want {
			t.Fatalf("cut at %d: %d entries, want %d", n, len(prior), want)
		}
		for i, k := range keys[:want] {
			if r := prior[k]; r == nil || r.MemCheck != uint64(i+1) || r.Stats.Cycles != uint64(1000*(i+1)) {
				t.Fatalf("cut at %d: entry %s = %+v", n, k, r)
			}
		}
		if err := led.Append("extra", &sta.Result{MemCheck: 99}); err != nil {
			t.Fatal(err)
		}
		led.Close()
		led, prior, err = harness.OpenLedger(path, 1)
		if err != nil {
			t.Fatalf("cut at %d, reopen after append: %v", n, err)
		}
		led.Close()
		if len(prior) != want+1 || prior["extra"] == nil || prior["extra"].MemCheck != 99 {
			t.Fatalf("cut at %d: after one append %d entries, want %d ending in extra", n, len(prior), want+1)
		}
	})
}

func TestArchiveIndexEveryOffset(t *testing.T) {
	cfg := config.Main(8)
	if err := config.Apply(config.WTHWPWEC, &cfg); err != nil {
		t.Fatal(err)
	}
	manifest := func(bench string, cycles uint64) *runstore.Manifest {
		res := &sta.Result{MemCheck: cycles}
		res.Stats.Cycles = cycles
		return runstore.New(bench, 1, cfg, res)
	}
	recorded := []*runstore.Manifest{manifest("gzip", 100), manifest("mcf", 200), manifest("vpr", 300)}
	dir := t.TempDir()
	rec := filepath.Join(dir, "recorded")
	st, err := runstore.Open(rec)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range recorded {
		if err := st.Put(m); err != nil {
			t.Fatal(err)
		}
	}
	st.Close()

	extra := manifest("parser", 400)
	cutAtEveryOffset(t, readFile(t, filepath.Join(rec, "index.jsonl")), "index.jsonl", true, func(arc string, n, want int) {
		st, err := runstore.Open(arc)
		if err != nil {
			t.Fatalf("cut at %d: %v", n, err)
		}
		if st.Len() != want {
			t.Fatalf("cut at %d: %d cells, want %d", n, st.Len(), want)
		}
		for _, m := range recorded[:want] {
			if got := st.Get(m.CellKey); got == nil || got.Stats != m.Stats {
				t.Fatalf("cut at %d: cell %s = %+v", n, m.CellKey, got)
			}
		}
		if err := st.Put(extra); err != nil {
			t.Fatal(err)
		}
		st.Close()
		st, err = runstore.Open(arc)
		if err != nil {
			t.Fatalf("cut at %d, reopen after append: %v", n, err)
		}
		st.Close()
		if st.Len() != want+1 || st.Get(extra.CellKey) == nil {
			t.Fatalf("cut at %d: after one append %d cells, want %d with the extra", n, st.Len(), want+1)
		}
	})
}

func TestSpanLogEveryOffset(t *testing.T) {
	start := func(dir string) *telemetry.Run {
		r, err := telemetry.Start(telemetry.Config{Dir: dir, Log: slog.New(slog.NewTextHandler(io.Discard, nil))})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	dir := t.TempDir()
	rec := filepath.Join(dir, "recorded")
	r := start(rec)
	r.BeginSuite("fig8")
	for _, bench := range []string{"gzip", "mcf", "vpr"} {
		r.StartCell(bench, "cfg-00000001", 0, nil).Done(10)
	}
	r.EndSuite("ok", nil)
	r.Close()
	full := readFile(t, filepath.Join(rec, "spans.jsonl"))

	cutAtEveryOffset(t, full, "spans.jsonl", false, func(tel string, n, want int) {
		path := filepath.Join(tel, "spans.jsonl")
		r := start(tel)
		prefix := full[:bytes.LastIndexByte(full[:n], '\n')+1]
		if got := readFile(t, path); !bytes.Equal(got, prefix) {
			t.Fatalf("cut at %d: reopened log holds %q, want the %d whole spans %q", n, got, want, prefix)
		}
		r.StartCell("extra", "cfg-00000002", 0, nil).Done(20)
		r.Close()
		start(tel).Close()
		lines := bytes.Split(bytes.TrimSuffix(readFile(t, path), []byte{'\n'}), []byte{'\n'})
		var last telemetry.Span
		if len(lines) != want+1 || json.Unmarshal(lines[want], &last) != nil || last.Bench != "extra" {
			t.Fatalf("cut at %d: after one append the log holds %d lines, want %d ending in the extra span", n, len(lines), want+1)
		}
	})
}
