package telemetry

import (
	"io"
	"net/http"
	"os"
	"path/filepath"
	"testing"
)

// A run without a server profiles itself: Close leaves a CPU and a heap
// profile in the directory.
func TestStartProfileWritesProfiles(t *testing.T) {
	dir := t.TempDir()
	r := quietRun(t, Config{Dir: dir})
	if err := r.StartProfile(); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"cpu.pprof", "heap.pprof"} {
		if fi, err := os.Stat(filepath.Join(dir, name)); err != nil || fi.Size() == 0 {
			t.Errorf("%s missing or empty (%v)", name, err)
		}
	}
}

// A run that serves /debug/pprof leaves the process's one CPU profile to
// that endpoint: a live profile request succeeds while the run profiles,
// and Close writes the heap profile but no cpu.pprof.
func TestStartProfileLeavesServedProfilerFree(t *testing.T) {
	dir := t.TempDir()
	r := quietRun(t, Config{Dir: dir, Addr: "127.0.0.1:0"})
	if err := r.StartProfile(); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + r.Addr() + "/debug/pprof/profile?seconds=1")
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
