package telemetry

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/metrics"
	"repro/internal/simerr"
)

// quietRun starts a run with logging discarded and the given extras.
func quietRun(t *testing.T, cfg Config) *Run {
	t.Helper()
	cfg.Log = slog.New(slog.NewTextHandler(io.Discard, nil))
	r, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	return r
}

func TestSpanLifecycle(t *testing.T) {
	r := quietRun(t, Config{})
	suite := r.BeginSuite("fig9")
	c := r.StartCell("mcf", "cfg-12345678", 7, nil)
	if c.Span.Parent != suite.ID {
		t.Fatalf("cell parent %d, want suite span %d", c.Span.Parent, suite.ID)
	}
	if c.Span.Outcome != "" {
		t.Fatalf("fresh span has outcome %q", c.Span.Outcome)
	}
	c.Done(4242)
	if c.Span.Outcome != "ok" || c.Span.EndCycle != 4242 {
		t.Fatalf("ended span = %q/%d, want ok/4242", c.Span.Outcome, c.Span.EndCycle)
	}
	// Ending twice must not clobber the sealed state.
	c.Span.EndAt(9999, "panic", fmt.Errorf("late"))
	if c.Span.Outcome != "ok" || c.Span.EndCycle != 4242 {
		t.Fatalf("double end mutated the span: %q/%d", c.Span.Outcome, c.Span.EndCycle)
	}
	r.EndSuite("ok", nil)
	if done, failed := r.Counts(); done != 1 || failed != 0 {
		t.Fatalf("counts %d/%d, want 1/0", done, failed)
	}
}

func TestCellFailStampsError(t *testing.T) {
	dir := t.TempDir()
	r := quietRun(t, Config{Dir: dir})
	c := r.StartCell("vpr", "cfg-deadbeef", 0, nil)
	e := simerr.New(simerr.Deadlock, "sta.Run", fmt.Errorf("stuck"))
	e.Cycle = 1234
	path := c.Fail(e)
	if e.Run != r.ID || e.Span != c.Span.ID {
		t.Fatalf("error not stamped: run %q span %d", e.Run, e.Span)
	}
	if !strings.Contains(e.Error(), r.ID) {
		t.Fatalf("error text %q misses run ID", e.Error())
	}
	if c.Span.Outcome != "deadlock" || c.Span.EndCycle != 1234 {
		t.Fatalf("failed span = %q/%d, want deadlock/1234", c.Span.Outcome, c.Span.EndCycle)
	}
	var dump FlightDump
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &dump); err != nil {
		t.Fatal(err)
	}
	if dump.Run != r.ID || dump.Span != c.Span.ID || dump.Kind != "deadlock" || dump.Cycle != 1234 {
		t.Fatalf("dump identity wrong: %+v", dump)
	}
}

// TestFlightDumpExportsCollector: a failed cell's dump carries its
// collector's export at the failure cycle in place of its own copies of
// history, and its run and span IDs find the failed cell span, outcome
// equal to the dump's kind, in the span journal beside it.
func TestFlightDumpExportsCollector(t *testing.T) {
	dir := t.TempDir()
	r := quietRun(t, Config{Dir: dir})
	col := metrics.NewCollector(100)
	var commits uint64
	col.Registry.RegisterFunc("tu0", "commits", func() uint64 { return commits })
	col.Sampler.Add("ipc", metrics.PerCycle, func() float64 { return float64(commits) }, nil)
	c := r.StartCell("mcf", "cfg-9999aaaa", 0, col)
	for cycle := uint64(1); cycle <= 350; cycle++ {
		commits += cycle % 3
		col.MaybeSample(cycle)
		col.MemLatency.Observe(cycle % 7)
		col.Publish(cycle, commits, false)
	}
	e := simerr.New(simerr.Panic, "sta.Run", fmt.Errorf("injected"))
	e.Cycle = 350
	path := c.Fail(e)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var fields map[string]json.RawMessage
	if err := json.Unmarshal(raw, &fields); err != nil {
		t.Fatal(err)
	}
	for _, gone := range []string{"spans", "dropped_spans", "progress", "counters"} {
		if _, ok := fields[gone]; ok {
			t.Errorf("dump still has a %q field", gone)
		}
	}
	var want bytes.Buffer
	if err := col.WriteJSON(&want, 350); err != nil {
		t.Fatal(err)
	}
	var got, exp map[string]any
	if err := json.Unmarshal(fields["metrics"], &got); err != nil {
		t.Fatalf("dump metrics: %v", err)
	}
	if err := json.Unmarshal(want.Bytes(), &exp); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, exp) {
		t.Fatalf("dump metrics differ from the collector export:\n got %v\nwant %v", got, exp)
	}
	if rows := exp["series"].(map[string]any)["rows"].([]any); len(rows) != 3 {
		t.Fatalf("export holds %d series rows, want 3 (one per boundary before the failure)", len(rows))
	}

	var dump FlightDump
	if err := json.Unmarshal(raw, &dump); err != nil {
		t.Fatal(err)
	}
	journal, err := os.ReadFile(filepath.Join(dir, "spans.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, line := range bytes.Split(bytes.TrimSpace(journal), []byte("\n")) {
		var s Span
		if err := json.Unmarshal(line, &s); err != nil {
			t.Fatalf("bad journal line %q: %v", line, err)
		}
		if s.Run == dump.Run && s.ID == dump.Span {
			found = s.Kind == "cell" && s.Outcome == dump.Kind && dump.Kind == "panic"
		}
	}
	if !found {
		t.Fatalf("journal holds no cell span %s/%d with outcome %q:\n%s", dump.Run, dump.Span, dump.Kind, journal)
	}
}

func TestSpanJournal(t *testing.T) {
	dir := t.TempDir()
	r := quietRun(t, Config{Dir: dir})
	r.BeginSuite("table2")
	r.StartCell("gzip", "cfg-0badf00d", 0, nil).Done(100)
	r.StartCell("mesa", "cfg-0badf00d", 0, nil).Fail(fmt.Errorf("boom"))
	r.EndSuite("ok", nil)

	f, err := os.Open(filepath.Join(dir, "spans.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var kinds []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s Span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatalf("bad JSONL line %q: %v", sc.Text(), err)
		}
		if s.Run != r.ID || s.Outcome == "" || s.End_.IsZero() {
			t.Fatalf("journaled span incomplete: %+v", s)
		}
		kinds = append(kinds, s.Kind)
	}
	// Journal order is completion order: the two cells, then the suite.
	want := []string{"cell", "cell", "suite"}
	if fmt.Sprint(kinds) != fmt.Sprint(want) {
		t.Fatalf("journal kinds %v, want %v", kinds, want)
	}
}

func TestConvertSpans(t *testing.T) {
	dir := t.TempDir()
	r := quietRun(t, Config{Dir: dir})
	r.BeginSuite("fig8")
	r.StartCell("parser", "cfg-11112222", 0, nil).Done(55)
	r.EndSuite("ok", nil)

	raw, err := os.ReadFile(filepath.Join(dir, "spans.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	// Append a torn tail, as a live file would have; conversion must stop
	// cleanly rather than error.
	raw = append(raw, []byte(`{"id":99,"run":"trunc`)...)
	var out bytes.Buffer
	if err := ConvertSpans(bytes.NewReader(raw), &out, r.ID); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
			Cat  string `json:"cat"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(out.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	var cells, suites int
	for _, e := range doc.TraceEvents {
		switch e.Cat {
		case "cell":
			cells++
		case "suite":
			suites++
		}
	}
	if cells != 1 || suites != 1 {
		t.Fatalf("converted %d cell / %d suite events, want 1/1", cells, suites)
	}

	// Close renders the journal beside it.
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	rendered, err := os.ReadFile(filepath.Join(dir, "spans.trace.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !json.Valid(rendered) || !bytes.Contains(rendered, []byte(`"cat":"cell"`)) {
		t.Fatalf("spans.trace.json is not the rendered journal:\n%s", rendered)
	}
}

// TestSpanLogTornTailNextRun: a run killed mid-append leaves a torn span
// line behind; a second run on the same directory must cut it, so its own
// spans land on lines of their own and ConvertSpans renders them. Earlier
// versions appended the next run's span onto the torn line, leaving a
// corrupt line mid-file; that line is cut the same way.
func TestSpanLogTornTailNextRun(t *testing.T) {
	const torn = `{"id":2,"run":"killed-mid-wri`
	for name, tail := range map[string]string{
		"torn tail": torn,
		"glued line": torn + `{"id":1,"run":"later","kind":"cell","name":"vpr/cfg-00000003",` +
			`"start":"2026-01-01T00:00:00Z","end":"2026-01-01T00:00:01Z","outcome":"ok"}` + "\n",
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, "spans.jsonl")
			first := quietRun(t, Config{Dir: dir})
			first.StartCell("gzip", "cfg-00000001", 0, nil).Done(10)
			first.Close()
			f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.WriteString(tail); err != nil {
				t.Fatal(err)
			}
			f.Close()

			second := quietRun(t, Config{Dir: dir})
			second.StartCell("mcf", "cfg-00000002", 0, nil).Done(20)
			second.Close()
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			// Both runs' cells render, each in its own run's trace.
			for run, want := range map[string]string{first.ID: "gzip/cfg-00000001", second.ID: "mcf/cfg-00000002"} {
				var out bytes.Buffer
				if err := ConvertSpans(bytes.NewReader(raw), &out, run); err != nil {
					t.Fatal(err)
				}
				var doc struct {
					TraceEvents []struct {
						Name string `json:"name"`
					} `json:"traceEvents"`
				}
				if err := json.Unmarshal(out.Bytes(), &doc); err != nil {
					t.Fatal(err)
				}
				var names []string
				for _, e := range doc.TraceEvents {
					names = append(names, e.Name)
				}
				if got := strings.Join(names, ","); got != "process_name,"+want {
					t.Fatalf("run %s converted events %s, want its own cell %s", run, got, want)
				}
			}
			// The trace the second run rendered at Close leaves the first out.
			rendered, err := os.ReadFile(filepath.Join(dir, "spans.trace.json"))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Contains(rendered, []byte("mcf/")) || bytes.Contains(rendered, []byte("gzip/")) {
				t.Fatalf("spans.trace.json does not hold exactly the second run's cell:\n%s", rendered)
			}
		})
	}
}

// TestCloseRendersOnlyItsOwnSpans: a reused directory's journal keeps
// every earlier run, including a line an older schema wrote that is valid
// JSON but no Span. Close renders from the offset its run started at, so
// neither the history nor that line stops it.
func TestCloseRendersOnlyItsOwnSpans(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "spans.jsonl"), []byte(`{"id":"old-schema"}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	first := quietRun(t, Config{Dir: dir})
	first.StartCell("gzip", "cfg-00000001", 0, nil).Done(10)
	if err := first.Close(); err != nil {
		t.Fatal(err)
	}
	second := quietRun(t, Config{Dir: dir})
	second.StartCell("mcf", "cfg-00000002", 0, nil).Done(20)
	if err := second.Close(); err != nil {
		t.Fatal(err)
	}
	rendered, err := os.ReadFile(filepath.Join(dir, "spans.trace.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !json.Valid(rendered) || !bytes.Contains(rendered, []byte("mcf/")) || bytes.Contains(rendered, []byte("gzip/")) {
		t.Fatalf("spans.trace.json does not hold exactly the second run's cell:\n%s", rendered)
	}
}

// TestPromGroupsFamilies: with two cells in flight, every metric family's
// samples form one contiguous group, as the text format requires.
func TestPromGroupsFamilies(t *testing.T) {
	r := quietRun(t, Config{})
	for i, bench := range []string{"mcf", "vpr"} {
		reg := metrics.NewRegistry()
		reg.RegisterFunc("tu0", "commits", func() uint64 { return 5 })
		reg.RegisterFunc("l1d0", "misses", func() uint64 { return 2 })
		col := &metrics.Collector{Registry: reg}
		r.StartCell(bench, "cfg-77778888", 0, col)
		col.Publish(uint64(100*(i+1)), 5, true)
	}
	var buf bytes.Buffer
	if err := r.WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	seen := map[string]int{}
	last := ""
	for _, line := range strings.Split(buf.String(), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name := line[:strings.IndexAny(line, "{ ")]
		if name != last && seen[name] > 0 {
			t.Fatalf("family %s reappears after %s:\n%s", name, last, buf.String())
		}
		seen[name]++
		last = name
	}
	for _, name := range []string{"sta_cell_cycle", "sta_cell_commits", "sta_cell_cycles_per_second", "sta_sim_commits", "sta_sim_misses"} {
		if seen[name] != 2 {
			t.Errorf("%s has %d samples, want one per cell", name, seen[name])
		}
	}
}

// TestWriteRuns renders the /runs document without a server: the run
// header, the suite span, and every in-flight cell with its live progress
// in span-ID order; completed cells leave an empty list, not null.
func TestWriteRuns(t *testing.T) {
	r := quietRun(t, Config{})
	r.SetLedger("/tmp/led.jsonl")
	r.SetArchive("/tmp/archive")
	r.BeginSuite("fig10")
	var cells []*Cell
	for i, bench := range []string{"mcf", "vpr", "gzip"} {
		c := r.StartCell(bench, "cfg-33334444", 0, nil)
		c.Obs.Publish(uint64(100*(i+1)), uint64(10*(i+1)), true)
		cells = append(cells, c)
	}
	r.StartCell("mesa", "cfg-33334444", 0, nil).Fail(fmt.Errorf("boom"))

	var buf bytes.Buffer
	if err := r.WriteRuns(&buf); err != nil {
		t.Fatal(err)
	}
	var doc runsDoc
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("/runs is not JSON: %v\n%s", err, buf.String())
	}
	if doc.Run != r.ID || doc.Suite == nil || doc.Suite.Name != "fig10" ||
		doc.Ledger != "/tmp/led.jsonl" || doc.Archive != "/tmp/archive" ||
		doc.Done != 0 || doc.Failed != 1 || len(doc.Cells) != len(cells) {
		t.Fatalf("/runs document wrong:\n%s", buf.String())
	}
	for i, rc := range doc.Cells {
		c := cells[i]
		if rc.Span.ID != c.Span.ID || rc.Span.Bench != c.Span.Bench ||
			rc.Cycle != uint64(100*(i+1)) || rc.Commits != uint64(10*(i+1)) {
			t.Fatalf("cell %d = %+v, want span %d (%s) at cycle %d", i, rc, c.Span.ID, c.Span.Bench, 100*(i+1))
		}
	}

	for _, c := range cells {
		c.Done(1)
	}
	r.EndSuite("ok", nil)
	buf.Reset()
	if err := r.WriteRuns(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"cells": []`) || strings.Contains(buf.String(), `"suite"`) {
		t.Fatalf("/runs after completion should have no suite and empty cells:\n%s", buf.String())
	}
}

func TestPromEscape(t *testing.T) {
	if got := promEscape(`a"b\c` + "\n"); got != `a\"b\\c\n` {
		t.Fatalf("promEscape = %q", got)
	}
	if got := promSanitize("l1d.miss-rate/0"); got != "l1d_miss_rate_0" {
		t.Fatalf("promSanitize = %q", got)
	}
}
