package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// goldenPath holds the simulated numbers the output checks compare
// against, relative to the repository root. They are deterministic: a
// change to them is a change to the model or to the sampling estimator, and
// is re-recorded with -update-golden.
const goldenPath = "benchmark/golden.json"

type golden struct {
	// MachineCycles maps "bench/TUs" to the simulated cycles of the
	// single-machine workload's wth-wp-wec runs.
	MachineCycles map[string]uint64 `json:"machine_cycles"`
	// MemReplayMisses is the L1D demand-miss count of the mem layer probe's
	// replay of mcf's address stream.
	MemReplayMisses uint64 `json:"mem_replay_misses"`
	// SampledErrPP is the largest speedup error, in percentage points, the
	// survey regime may show on Figure 11 (it does not depend on the seed).
	SampledErrPP float64 `json:"sampled_speedup_err_pp"`
	// SampledCoverMin is the smallest share of Figure 11 cells whose
	// confidence interval must contain the detailed cycle count: the lowest
	// share seeds 1-20 gave.
	SampledCoverMin float64 `json:"sampled_ci_cover_min"`

	update bool
}

func loadGolden(update bool) (*golden, error) {
	g := &golden{update: update}
	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		return nil, fmt.Errorf("the benchmark runs from the repository root: %w", err)
	}
	if err := json.Unmarshal(raw, g); err != nil {
		return nil, fmt.Errorf("%s: %w", goldenPath, err)
	}
	if g.MachineCycles == nil {
		g.MachineCycles = map[string]uint64{}
	}
	return g, nil
}

// machine checks (or, when updating, records) one single-machine run.
func (g *golden) machine(key string, cycles uint64) error {
	if g.update {
		g.MachineCycles[key] = cycles
		return nil
	}
	want, ok := g.MachineCycles[key]
	if !ok {
		return fmt.Errorf("single-machine %s: no golden cycle count (re-record with -update-golden)", key)
	}
	if cycles != want {
		return fmt.Errorf("single-machine %s: %d cycles, golden %d", key, cycles, want)
	}
	return nil
}

// memMisses checks (or records) the mem replay's miss count.
func (g *golden) memMisses(misses uint64) error {
	if g.update {
		g.MemReplayMisses = misses
		return nil
	}
	if misses != g.MemReplayMisses {
		return fmt.Errorf("mem replay: %d L1D misses, golden %d", misses, g.MemReplayMisses)
	}
	return nil
}

// accuracy checks the sampled estimate against its recorded limits. When
// updating, the error is recorded and the coverage floor lowered to this
// seed's coverage, so runs over several seeds record the lowest.
func (g *golden) accuracy(errPP, cover float64) error {
	if g.update {
		g.SampledErrPP = errPP
		if g.SampledCoverMin == 0 || cover < g.SampledCoverMin {
			g.SampledCoverMin = cover
		}
		return nil
	}
	// The error is deterministic; the slack only absorbs float rounding.
	if errPP > g.SampledErrPP*(1+1e-9) {
		return fmt.Errorf("sampled speedup error %.4f pp exceeds the recorded %.4f pp", errPP, g.SampledErrPP)
	}
	if cover < g.SampledCoverMin {
		return fmt.Errorf("sampled CI coverage %.4f is below the recorded floor %.4f", cover, g.SampledCoverMin)
	}
	return nil
}

func (g *golden) save() error {
	raw, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(goldenPath, append(raw, '\n'), 0o644)
}
