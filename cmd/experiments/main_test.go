package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
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
		"archive", "chaos-core-panic", "chaos-ledger-fail", "chaos-livelock",
		"chaos-panic", "chaos-seed", "chaos-slow", "format", "ledger", "list",
		"out", "resume", "run", "sample-measure", "sample-period",
		"sample-seed", "sample-warmup", "scale", "telemetry-addr", "timeout",
		"v", "wgen-corpus", "wgen-count", "wgen-genome", "wgen-seed", "workers",
	}
	if got := flagNames(t, run); !slices.Equal(got, want) {
		t.Fatalf("flags %v\nwant %v", got, want)
	}
}

func TestRemovedFlagIsUsageError(t *testing.T) {
	for _, flag := range []string{"-metrics-dir", "-attrib-dir", "-telemetry-dir", "-span-timeline", "-interval"} {
		var stdout, stderr bytes.Buffer
		if code := run([]string{"-run", "fig17", flag, "x"}, &stdout, &stderr); code != 2 {
			t.Errorf("%s: exit %d, want 2", flag, code)
		}
		if stdout.Len() != 0 {
			t.Errorf("%s: printed %q", flag, stdout.String())
		}
	}
}

// TestOutWritesEveryArtifact sweeps fig17 with -out and -archive: every
// fresh cell writes its metrics and attribution JSON, the run writes its
// span journal, rendered trace and profiles, and every archived
// manifest's artifact paths exist.
func TestOutWritesEveryArtifact(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "out")
	runs := filepath.Join(dir, "runs")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-run", "fig17", "-out", out, "-archive", runs}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d\n%s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "Figure 17") {
		t.Errorf("no table on stdout:\n%s", stdout.String())
	}
	for _, name := range []string{"spans.jsonl", "spans.trace.json", "cpu.pprof", "heap.pprof"} {
		if fi, err := os.Stat(filepath.Join(out, name)); err != nil || fi.Size() == 0 {
			t.Errorf("%s missing or empty (%v)", name, err)
		}
	}
	metrics, _ := filepath.Glob(filepath.Join(out, "*.metrics.json"))
	attribs, _ := filepath.Glob(filepath.Join(out, "*.attrib.json"))
	mans, _ := filepath.Glob(filepath.Join(runs, "c*", "*.json"))
	if len(mans) == 0 || len(metrics) != len(mans) || len(attribs) != len(mans) {
		t.Fatalf("%d metrics and %d attribution files for %d archived cells", len(metrics), len(attribs), len(mans))
	}
	for _, f := range append(append(metrics, attribs...), filepath.Join(out, "spans.trace.json")) {
		if data, err := os.ReadFile(f); err != nil || !json.Valid(data) {
			t.Errorf("%s does not parse as JSON (%v)", filepath.Base(f), err)
		}
	}
	for _, path := range mans {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var man runstore.Manifest
		if err := json.Unmarshal(raw, &man); err != nil {
			t.Fatal(err)
		}
		if len(man.Artifacts) != 3 {
			t.Errorf("%s: artifacts %v, want metrics, attrib and spans", man.CellKey, man.Artifacts)
		}
		for kind, p := range man.Artifacts {
			if _, err := os.Stat(p); err != nil {
				t.Errorf("%s: artifact %s: %v", man.CellKey, kind, err)
			}
		}
	}
}

// TestFailedCellsDumpFlight: with every cell panicking, the sweep exits 1
// and each failed cell leaves a flight-recorder dump under -out.
func TestFailedCellsDumpFlight(t *testing.T) {
	out := t.TempDir()
	var stdout, stderr bytes.Buffer
	args := []string{"-run", "fig17", "-workers", "2", "-chaos-seed", "9", "-chaos-panic", "1", "-out", out}
	if code := run(args, &stdout, &stderr); code != 1 {
		t.Fatalf("exit %d, want 1\n%s", code, stderr.String())
	}
	dumps, _ := filepath.Glob(filepath.Join(out, "flight-*.json"))
	if len(dumps) == 0 {
		t.Fatalf("no flight dumps in %s\n%s", out, stderr.String())
	}
	for _, f := range dumps {
		if data, err := os.ReadFile(f); err != nil || !json.Valid(data) {
			t.Errorf("%s unreadable (%v)", filepath.Base(f), err)
		}
	}
}
