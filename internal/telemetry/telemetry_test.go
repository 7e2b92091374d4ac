package telemetry

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

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
	c := r.StartCell("mcf", "cfg-12345678", 7)
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
	got := r.Flight().Recent()
	if len(got) != 2 || got[0].Kind != "cell" || got[1].Kind != "suite" {
		t.Fatalf("flight ring %v, want [cell suite]", got)
	}
}

func TestCellFailStampsError(t *testing.T) {
	dir := t.TempDir()
	r := quietRun(t, Config{Dir: dir})
	c := r.StartCell("vpr", "cfg-deadbeef", 0)
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
	if len(dump.Spans) == 0 {
		t.Fatal("dump carries no span history")
	}
}

func TestSpanJournal(t *testing.T) {
	dir := t.TempDir()
	r := quietRun(t, Config{Dir: dir})
	r.BeginSuite("table2")
	r.StartCell("gzip", "cfg-0badf00d", 0).Done(100)
	r.StartCell("mesa", "cfg-0badf00d", 0).Fail(fmt.Errorf("boom"))
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
	r.StartCell("parser", "cfg-11112222", 0).Done(55)
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
			first.StartCell("gzip", "cfg-00000001", 0).Done(10)
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
			second.StartCell("mcf", "cfg-00000002", 0).Done(20)
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

func TestFlightRingBound(t *testing.T) {
	r := quietRun(t, Config{FlightSpans: 4})
	for i := 0; i < 10; i++ {
		r.StartSpan("sim", fmt.Sprintf("s%d", i), nil).End("ok", nil)
	}
	recent := r.Flight().Recent()
	if len(recent) != 4 {
		t.Fatalf("ring holds %d spans, want 4", len(recent))
	}
	if recent[0].Name != "s6" || recent[3].Name != "s9" {
		t.Fatalf("ring kept %q..%q, want s6..s9", recent[0].Name, recent[3].Name)
	}
	if d := r.Flight().Dropped(); d != 6 {
		t.Fatalf("dropped %d, want 6", d)
	}
}

// promLine matches one exposition sample: name{labels} value.
var promLine = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? -?[0-9]`)

func TestHTTPEndpoints(t *testing.T) {
	r := quietRun(t, Config{Addr: "127.0.0.1:0"})
	r.SetLedger("/tmp/led.jsonl")
	r.NoteLedgerAppend()
	r.NoteRetry("harness.metrics", 1, fmt.Errorf("disk full"))
	r.BeginSuite("fig10")
	c := r.StartCell("equake", "cfg-33334444", 0)
	base := "http://" + r.Addr()

	get := func(path string) (string, string) {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %s", path, resp.Status)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body), resp.Header.Get("Content-Type")
	}

	if body, _ := get("/healthz"); strings.TrimSpace(body) != "ok" {
		t.Fatalf("/healthz = %q", body)
	}

	metricsBody, ct := get("/metrics")
	if !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("/metrics content type %q", ct)
	}
	helped := map[string]bool{}
	for _, line := range strings.Split(metricsBody, "\n") {
		switch {
		case line == "":
		case strings.HasPrefix(line, "# HELP "):
			helped[strings.Fields(line)[2]] = true
		case strings.HasPrefix(line, "# TYPE "):
			if !helped[strings.Fields(line)[2]] {
				t.Fatalf("TYPE before HELP: %q", line)
			}
		default:
			if !promLine.MatchString(line) {
				t.Fatalf("malformed sample line %q", line)
			}
			name := line[:strings.IndexAny(line, "{ ")]
			if !helped[name] {
				t.Fatalf("sample %q precedes its HELP/TYPE header", line)
			}
		}
	}
	for _, want := range []string{
		`sta_suite_info{run="` + r.ID + `"} 1`,
		"sta_suite_cells_inflight 1",
		"sta_suite_retries_total 1",
		`sta_suite_ledger_appends_total{path="/tmp/led.jsonl"} 1`,
		`sta_cell_cycle{bench="equake",config="cfg-33334444",span="` + fmt.Sprint(c.Span.ID) + `"}`,
	} {
		if !strings.Contains(metricsBody, want) {
			t.Fatalf("/metrics misses %q in:\n%s", want, metricsBody)
		}
	}

	runsBody, ct := get("/runs")
	if !strings.HasPrefix(ct, "application/json") {
		t.Fatalf("/runs content type %q", ct)
	}
	var doc struct {
		Run   string `json:"run"`
		Suite *Span  `json:"suite"`
		Cells []struct {
			Span Span `json:"span"`
		} `json:"cells"`
		Ledger string `json:"ledger"`
	}
	if err := json.Unmarshal([]byte(runsBody), &doc); err != nil {
		t.Fatalf("/runs is not JSON: %v\n%s", err, runsBody)
	}
	if doc.Run != r.ID || doc.Suite == nil || doc.Suite.Name != "fig10" ||
		len(doc.Cells) != 1 || doc.Cells[0].Span.Bench != "equake" || doc.Ledger == "" {
		t.Fatalf("/runs document wrong: %s", runsBody)
	}

	c.Done(1)
	r.EndSuite("ok", nil)
	if body, _ := get("/runs"); !strings.Contains(body, `"cells": []`) {
		t.Fatalf("/runs after completion should have empty cells: %s", body)
	}
}

func TestRunsRaceWithCompletion(t *testing.T) {
	// Hammer /runs while cells start and end: the by-value span copies
	// under the run mutex must keep this race-free (run with -race).
	r := quietRun(t, Config{Addr: "127.0.0.1:0"})
	stop := make(chan struct{})
	go func() {
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			c := r.StartCell("mcf", "cfg-55556666", 0)
			if i%2 == 0 {
				c.Done(uint64(i))
			} else {
				c.Fail(fmt.Errorf("fail %d", i))
			}
		}
	}()
	deadline := time.Now().Add(300 * time.Millisecond)
	for time.Now().Before(deadline) {
		resp, err := http.Get("http://" + r.Addr() + "/runs")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	close(stop)
}

func TestPromEscape(t *testing.T) {
	if got := promEscape(`a"b\c` + "\n"); got != `a\"b\\c\n` {
		t.Fatalf("promEscape = %q", got)
	}
	if got := promSanitize("l1d.miss-rate/0"); got != "l1d_miss_rate_0" {
		t.Fatalf("promSanitize = %q", got)
	}
}
