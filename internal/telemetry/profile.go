package telemetry

import (
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"

	"repro/internal/runstore"
)

// StartProfile profiles the simulator itself for the rest of the run: on
// Close a heap profile into Dir/heap.pprof, and with cpu set a CPU
// profile into Dir/cpu.pprof. Go allows one CPU profile per process, so a
// caller that serves /debug/pprof passes cpu false and leaves CPU
// profiling to that endpoint. Call it at most once, on a run with a Dir.
func (r *Run) StartProfile(cpu bool) error {
	var cpuFile *os.File
	if cpu {
		var err error
		if cpuFile, err = os.Create(filepath.Join(r.cfg.Dir, "cpu.pprof")); err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return err
		}
	}
	r.stopProfile = func() error {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				return err
			}
		}
		runtime.GC()
		return runstore.WriteArtifact(filepath.Join(r.cfg.Dir, "heap.pprof"), pprof.WriteHeapProfile)
	}
	return nil
}
