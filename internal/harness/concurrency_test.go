package harness

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/config"
)

// TestConcurrentRunnerWithMetrics drives the worker pool with several
// workers, a shared Verbose writer, and per-run metrics and attribution
// collectors writing into one output directory, all at once. Run under -race (the CI does) it is the proof that the sampler and
// progress plumbing stay race-free across workers.
func TestConcurrentRunnerWithMetrics(t *testing.T) {
	dir := t.TempDir()
	var buf bytes.Buffer

	r := NewRunner(1)
	r.Workers = 4
	r.Verbose = &buf
	r.Out = dir

	var jobs []job
	for _, bench := range []string{"gzip", "vpr", "mcf"} {
		for _, name := range []config.Name{config.Orig, config.WTHWPWEC} {
			cfg := config.Main(2)
			if err := config.Apply(name, &cfg); err != nil {
				t.Fatal(err)
			}
			jobs = append(jobs, job{bench, cfg})
		}
	}
	if err := r.batch(jobs); err != nil {
		t.Fatal(err)
	}

	// Every completed run wrote one progress line to the shared writer.
	lines := strings.Count(buf.String(), "\n")
	if lines != len(jobs) {
		t.Errorf("verbose lines = %d, want %d:\n%s", lines, len(jobs), buf.String())
	}

	// Every run exported a metrics file, and each parses past the header.
	// Attribution reports share the directory, so match by suffix.
	files, err := filepath.Glob(filepath.Join(dir, "*.metrics.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != len(jobs) {
		t.Errorf("metrics files = %d, want %d (%v)", len(files), len(jobs), files)
	}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, want := range []string{`"cycles"`, `"counters"`, `"series"`} {
			if !strings.Contains(string(data), want) {
				t.Errorf("%s missing %s", filepath.Base(f), want)
			}
		}
	}
}
