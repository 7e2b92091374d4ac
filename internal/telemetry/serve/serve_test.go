package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/telemetry"
)

// quietRun starts a run with logging discarded.
func quietRun(t *testing.T, cfg telemetry.Config) *telemetry.Run {
	t.Helper()
	cfg.Log = slog.New(slog.NewTextHandler(io.Discard, nil))
	r, err := telemetry.Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// servedRun starts a quiet run served on a free port; cleanup closes the
// run, then the server, in the CLIs' order.
func servedRun(t *testing.T, cfg telemetry.Config) (*telemetry.Run, *Server) {
	t.Helper()
	r := quietRun(t, cfg)
	s, err := Start(r, "127.0.0.1:0")
	if err != nil {
		r.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() {
		r.Close()
		s.Close()
	})
	return r, s
}

// promLine matches one exposition sample: name{labels} value.
var promLine = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? -?[0-9]`)

func TestHTTPEndpoints(t *testing.T) {
	r, s := servedRun(t, telemetry.Config{})
	r.SetLedger("/tmp/led.jsonl")
	r.BeginSuite("fig10")
	c := r.StartCell("equake", "cfg-33334444", 0, nil)
	base := "http://" + s.Addr()

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
		Run   string          `json:"run"`
		Suite *telemetry.Span `json:"suite"`
		Cells []struct {
			Span telemetry.Span `json:"span"`
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
	r, s := servedRun(t, telemetry.Config{})
	stop := make(chan struct{})
	go func() {
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			c := r.StartCell("mcf", "cfg-55556666", 0, nil)
			if i%2 == 0 {
				c.Done(uint64(i))
			} else {
				c.Fail(fmt.Errorf("fail %d", i))
			}
		}
	}()
	deadline := time.Now().Add(300 * time.Millisecond)
	for time.Now().Before(deadline) {
		resp, err := http.Get("http://" + s.Addr() + "/runs")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	close(stop)
}

// A run pointed at an already-bound address must fail with an error that
// tells the operator what to do, not a bare EADDRINUSE.
func TestServerBindFailure(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	r := quietRun(t, telemetry.Config{})
	defer r.Close()
	_, err = Start(r, ln.Addr().String())
	if err == nil {
		t.Fatal("Start on a bound address succeeded")
	}
	if !strings.Contains(err.Error(), ln.Addr().String()) {
		t.Fatalf("bind error does not name the address: %v", err)
	}
	if !strings.Contains(err.Error(), "already") || !strings.Contains(err.Error(), ":0") {
		t.Fatalf("bind error lacks the remediation hint: %v", err)
	}
}

// Close must drain an in-flight /runs request: the handler that was
// already past the snapshot when shutdown began still delivers a complete
// JSON document, rather than having its connection torn down.
func TestServerShutdownDrainsRuns(t *testing.T) {
	r, s := servedRun(t, telemetry.Config{})
	entered := make(chan struct{})
	release := make(chan struct{})
	s.testRunsBarrier = func() {
		close(entered)
		<-release
	}
	r.StartCell("mcf", "cfg-deadbeef", 0, nil)

	type resp struct {
		doc json.RawMessage
		err error
	}
	got := make(chan resp, 1)
	go func() {
		res, err := http.Get("http://" + s.Addr() + "/runs")
		if err != nil {
			got <- resp{err: err}
			return
		}
		defer res.Body.Close()
		var doc json.RawMessage
		err = json.NewDecoder(res.Body).Decode(&doc)
		got <- resp{doc: doc, err: err}
	}()

	<-entered // the handler is in flight, pre-body
	closed := make(chan error, 1)
	go func() {
		err := r.Close()
		s.Close()
		closed <- err
	}()

	// Close must not complete while the handler is still held.
	select {
	case <-closed:
		t.Fatal("Close returned with a /runs handler still in flight")
	case <-time.After(50 * time.Millisecond):
	}

	close(release)
	select {
	case err := <-closed:
		if err != nil {
			t.Fatalf("Close: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not return after the handler finished")
	}
	g := <-got
	if g.err != nil {
		t.Fatalf("in-flight /runs was not drained: %v", g.err)
	}
}

// A run that serves /debug/pprof leaves the process's one CPU profile to
// that endpoint: a live profile request succeeds while the run profiles,
// and Close writes the heap profile but no cpu.pprof.
func TestStartProfileLeavesServedProfilerFree(t *testing.T) {
	dir := t.TempDir()
	r, s := servedRun(t, telemetry.Config{Dir: dir})
	if err := r.StartProfile(false); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + s.Addr() + "/debug/pprof/profile?seconds=1")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK || len(body) == 0 {
		t.Fatalf("live profile: status %d, %d bytes, %v: %s", resp.StatusCode, len(body), err, body)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(filepath.Join(dir, "heap.pprof")); err != nil || fi.Size() == 0 {
		t.Errorf("heap.pprof missing or empty (%v)", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "cpu.pprof")); !os.IsNotExist(err) {
		t.Errorf("cpu.pprof written beside a served profiler (%v)", err)
	}
}
