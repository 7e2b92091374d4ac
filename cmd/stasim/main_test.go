package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/runstore"
)

// flagNames runs a CLI with -h and returns the flag names its usage lists.
func flagNames(t *testing.T, run func(args []string, stdout, stderr io.Writer) int) []string {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-h"}, &stdout, &stderr); code != 0 {
		t.Fatalf("-h exited %d", code)
	}
	var names []string
	for _, m := range regexp.MustCompile(`(?m)^  -([a-z0-9-]+)`).FindAllStringSubmatch(stderr.String(), -1) {
		names = append(names, m[1])
	}
	slices.Sort(names)
	return names
}

// TestFlags pins the command-line surface: a new flag is a deliberate
// edit of this list.
func TestFlags(t *testing.T) {
	want := []string{
		"archive", "assoc", "bench", "config", "disasm", "file", "l1", "l2",
		"list", "out", "progress", "sample-measure", "sample-period",
		"sample-seed", "sample-warmup", "scale", "side", "telemetry-addr",
		"timeout", "tus", "watchdog", "wgen-genome", "wgen-seed",
	}
	if got := flagNames(t, run); !slices.Equal(got, want) {
		t.Fatalf("flags %v\nwant %v", got, want)
	}
}

func TestRemovedFlagIsUsageError(t *testing.T) {
	for _, flag := range []string{"-metrics", "-trace", "-attrib", "-telemetry-dir", "-cpuprofile"} {
		var stdout, stderr bytes.Buffer
		if code := run([]string{"-bench", "gzip", flag, "x"}, &stdout, &stderr); code != 2 {
			t.Errorf("%s: exit %d, want 2", flag, code)
		}
		if stdout.Len() != 0 {
			t.Errorf("%s: printed %q", flag, stdout.String())
		}
	}
}

// TestOutWritesEveryArtifact runs one small simulation with -out and
// -archive: every named file exists, each JSON file parses, the
// attribution summary is printed, and the archived manifest's artifact
// paths exist.
func TestOutWritesEveryArtifact(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "out")
	runs := filepath.Join(dir, "runs")
	var stdout, stderr bytes.Buffer
	args := []string{"-bench", "gzip", "-config", "wth-wp-wec", "-out", out, "-archive", runs}
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d\n%s", code, stderr.String())
	}
	for _, name := range []string{
		"metrics.json", "series.csv", "timeline.json", "attrib.json", "events.log",
		"spans.jsonl", "spans.trace.json", "cpu.pprof", "heap.pprof",
	} {
		data, err := os.ReadFile(filepath.Join(out, name))
		if err != nil {
			t.Fatal(err)
		}
		if len(data) == 0 {
			t.Errorf("%s is empty", name)
		}
		if strings.HasSuffix(name, ".json") && !json.Valid(data) {
			t.Errorf("%s does not parse as JSON", name)
		}
	}
	if !strings.Contains(stdout.String(), "attribution over") {
		t.Errorf("no attribution summary on stdout:\n%s", stdout.String())
	}

	mans, err := filepath.Glob(filepath.Join(runs, "c*", "*.json"))
	if err != nil || len(mans) != 1 {
		t.Fatalf("archived manifests %v (%v), want one", mans, err)
	}
	raw, err := os.ReadFile(mans[0])
	if err != nil {
		t.Fatal(err)
	}
	var man runstore.Manifest
	if err := json.Unmarshal(raw, &man); err != nil {
		t.Fatal(err)
	}
	if len(man.Artifacts) != 3 {
		t.Errorf("manifest artifacts %v, want metrics, attrib and spans", man.Artifacts)
	}
	for kind, path := range man.Artifacts {
		if _, err := os.Stat(path); err != nil {
			t.Errorf("artifact %s: %v", kind, err)
		}
	}
}

// TestFailedRunDumpsFlight: a run that fails with -out leaves a flight
// recorder dump in the directory and exits 1.
func TestFailedRunDumpsFlight(t *testing.T) {
	out := t.TempDir()
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-bench", "gzip", "-timeout", "1ns", "-out", out}, &stdout, &stderr); code != 1 {
		t.Fatalf("exit %d, want 1\n%s", code, stderr.String())
	}
	dumps, _ := filepath.Glob(filepath.Join(out, "flight-*.json"))
	if len(dumps) != 1 {
		t.Fatalf("flight dumps %v, want one", dumps)
	}
	data, err := os.ReadFile(dumps[0])
	if err != nil || !json.Valid(data) {
		t.Fatalf("flight dump unreadable (%v):\n%s", err, data)
	}
}

// addrLog collects a run's stderr and hands over the telemetry server's
// address once the run logs it.
type addrLog struct {
	mu   sync.Mutex
	buf  bytes.Buffer
	sent bool
	addr chan string // buffered; receives the address once
}

func (l *addrLog) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.buf.Write(p)
	if m := regexp.MustCompile(`listening.* addr=(\S+)`).FindSubmatch(l.buf.Bytes()); m != nil && !l.sent {
		l.sent = true
		l.addr <- string(m[1])
	}
	return len(p), nil
}

func (l *addrLog) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.buf.String()
}

// TestOutLeavesLiveProfilerFree: with -telemetry-addr, -out starts no
// whole-run CPU profile, so /debug/pprof/profile answers during the run;
// the run still writes heap.pprof, and no cpu.pprof. The program spins
// until -timeout ends it.
func TestOutLeavesLiveProfilerFree(t *testing.T) {
	dir := t.TempDir()
	src := filepath.Join(dir, "spin.sta")
	if err := os.WriteFile(src, []byte("spin:\n\tjmp spin\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(dir, "out")
	stderr := &addrLog{addr: make(chan string, 1)}
	done := make(chan int, 1)
	go func() {
		args := []string{"-file", src, "-timeout", "3s", "-out", out, "-telemetry-addr", "127.0.0.1:0"}
		done <- run(args, io.Discard, stderr)
	}()
	var addr string
	select {
	case addr = <-stderr.addr:
	case code := <-done:
		t.Fatalf("exit %d before serving\n%s", code, stderr)
	}
	resp, err := http.Get("http://" + addr + "/debug/pprof/profile?seconds=1")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK || len(body) == 0 {
		t.Errorf("live profile: status %d, %d bytes, %v: %s", resp.StatusCode, len(body), err, body)
	}
	if code := <-done; code != 1 {
		t.Errorf("exit %d, want 1 (timeout)\n%s", code, stderr)
	}
	if fi, err := os.Stat(filepath.Join(out, "heap.pprof")); err != nil || fi.Size() == 0 {
		t.Errorf("heap.pprof missing or empty (%v)", err)
	}
	if _, err := os.Stat(filepath.Join(out, "cpu.pprof")); !os.IsNotExist(err) {
		t.Errorf("cpu.pprof written beside a served profiler (%v)", err)
	}
}

// TestSampledOutNotesMissingAttribution: a sampled run carries no
// attribution, so -out writes no attrib.json and says why on stderr.
func TestSampledOutNotesMissingAttribution(t *testing.T) {
	out := t.TempDir()
	var stdout, stderr bytes.Buffer
	args := []string{"-bench", "gzip", "-sample-warmup", "500", "-sample-measure", "1000",
		"-sample-period", "30000", "-out", out}
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d\n%s", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "attribution: none for a sampled run") {
		t.Errorf("no note on stderr:\n%s", stderr.String())
	}
	if _, err := os.Stat(filepath.Join(out, "attrib.json")); !os.IsNotExist(err) {
		t.Errorf("attrib.json written for a sampled run (%v)", err)
	}
	if _, err := os.Stat(filepath.Join(out, "metrics.json")); err != nil {
		t.Error(err)
	}
}
