package telemetry

import (
	"os"
	"path/filepath"
	"testing"
)

// A run told to take the CPU profile profiles itself: Close leaves a CPU
// and a heap profile in the directory.
func TestStartProfileWritesProfiles(t *testing.T) {
	dir := t.TempDir()
	r := quietRun(t, Config{Dir: dir})
	if err := r.StartProfile(true); err != nil {
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
