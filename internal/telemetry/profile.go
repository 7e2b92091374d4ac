package telemetry

import (
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"

	"repro/internal/runstore"
)

// StartProfile profiles the simulator itself for the rest of the run: a
// CPU profile into Dir/cpu.pprof, and on Close a heap profile into
// Dir/heap.pprof. Go allows one CPU profile per process, so a run that
// serves /debug/pprof leaves CPU profiling to that endpoint and writes no
// cpu.pprof. Call it at most once, on a run with a Dir.
func (r *Run) StartProfile() error {
	var cpu *os.File
	if r.server == nil {
		var err error
		if cpu, err = os.Create(filepath.Join(r.cfg.Dir, "cpu.pprof")); err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(cpu); err != nil {
			cpu.Close()
			return err
		}
	}
	r.stopProfile = func() error {
		if cpu != nil {
			pprof.StopCPUProfile()
			if err := cpu.Close(); err != nil {
				return err
			}
		}
		runtime.GC()
		return runstore.WriteArtifact(filepath.Join(r.cfg.Dir, "heap.pprof"), pprof.WriteHeapProfile)
	}
	return nil
}
