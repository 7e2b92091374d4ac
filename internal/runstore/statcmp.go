package runstore

import (
	"fmt"
	"sort"

	"repro/internal/stats"
)

// The statistical comparison engine behind `simql diff`: paired deltas
// across benchmarks with bootstrap confidence intervals. The simulator is
// deterministic, so the sampling distribution here is over *benchmarks*
// (does the effect generalize across the suite?), not over run-to-run
// noise: a self-comparison yields exactly-zero deltas and a degenerate
// [0,0] interval, which is the sanity check CI runs.

// BenchDelta is one benchmark's paired measurement.
type BenchDelta struct {
	Bench string  `json:"bench"`
	A     float64 `json:"a"`
	B     float64 `json:"b"`
	// Rel is the relative change from A to B, signed so that positive is
	// "B is better" for the metric's polarity.
	Rel float64 `json:"rel"`
}

// DeltaStat is one metric's paired comparison over a benchmark set.
type DeltaStat struct {
	Metric string `json:"metric"`
	// HigherIsBetter records the metric's polarity (false for miss rates).
	HigherIsBetter bool         `json:"higher_is_better"`
	Benches        []BenchDelta `json:"benches"`
	// Mean is the mean relative change; Lo/Hi bound the (1-alpha)
	// percentile bootstrap interval of that mean.
	Mean float64 `json:"mean"`
	Lo   float64 `json:"lo"`
	Hi   float64 `json:"hi"`
}

// Regressed reports whether the metric shows a significant regression
// beyond tol: the mean favors A by more than tol AND the whole confidence
// interval sits below zero (so benchmark-to-benchmark variation cannot
// explain it away).
func (d *DeltaStat) Regressed(tol float64) bool {
	return d.Mean < -tol && d.Hi < 0
}

// Metric extracts one comparable number from a manifest.
type Metric struct {
	Name           string
	HigherIsBetter bool
	Get            func(*Manifest) float64
}

// DiffMetrics is the metric set `simql diff` gates and reports: speedup
// (cycle-count ratio), IPC, and the correct-path L1D miss rate. Sampled
// manifests contribute their whole-run estimates (Est*) so a sampled pair
// compares estimate against estimate; mixing a sampled cell with a detailed
// one is refused at pairing time (see Sampled and cmd/simql).
func DiffMetrics() []Metric {
	return []Metric{
		{Name: "speedup", HigherIsBetter: true, Get: func(m *Manifest) float64 { return m.Stats.EstCycles() }},
		{Name: "ipc", HigherIsBetter: true, Get: func(m *Manifest) float64 { return m.Stats.EstIPC() }},
		{Name: "l1d_miss_rate", HigherIsBetter: false, Get: func(m *Manifest) float64 { return m.Stats.EstL1DMissRate() }},
	}
}

// Compare computes one metric's paired deltas plus a bootstrap CI over
// the benchmark set. boot is the resample count, seed the deterministic
// RNG seed, conf the interval mass (e.g. 0.95).
func Compare(pairs [][2]*Manifest, met Metric, boot int, seed uint64, conf float64) DeltaStat {
	d := DeltaStat{Metric: met.Name, HigherIsBetter: met.HigherIsBetter}
	rels := make([]float64, 0, len(pairs))
	for _, p := range pairs {
		a, b := met.Get(p[0]), met.Get(p[1])
		var rel float64
		switch {
		case met.Name == "speedup":
			// Cycle counts: speedup of B over A is cyclesA/cyclesB; report
			// it as a relative change so +0.05 means "B is 5% faster".
			if b != 0 {
				rel = a/b - 1
			}
		case met.HigherIsBetter:
			if a != 0 {
				rel = (b - a) / a
			}
		default:
			// Lower is better: positive rel means B improved (lower).
			if a != 0 {
				rel = (a - b) / a
			}
		}
		rels = append(rels, rel)
		d.Benches = append(d.Benches, BenchDelta{Bench: p[0].Bench, A: a, B: b, Rel: rel})
	}
	d.Mean = mean(rels)
	d.Lo, d.Hi = stats.BootstrapCI(rels, boot, seed, conf)
	return d
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// ParetoPoint is one configuration's position in the speedup-vs-cost
// plane: weighted-average speedup over a paired baseline, against the
// hardware cost model.
type ParetoPoint struct {
	CfgHash  string  `json:"cfg_hash"`
	Config   string  `json:"config"`
	TUs      int     `json:"tus"`
	SideKind string  `json:"side_kind"`
	SideEnts int     `json:"side_entries"`
	CostKB   float64 `json:"cost_kb"`
	// Speedup is the execution-time-weighted average speedup across the
	// benchmarks shared with the baseline (the paper's suite average).
	Speedup  float64 `json:"speedup"`
	Benches  int     `json:"benches"`
	Frontier bool    `json:"frontier"`
}

// Pareto groups the candidate manifests by configuration, computes each
// configuration's weighted-average speedup against the baseline set
// (paired per benchmark), and marks the Pareto frontier of
// (min cost, max speedup). Configurations sharing no benchmark with the
// baseline are skipped.
func Pareto(candidates, baseline []*Manifest) ([]ParetoPoint, error) {
	baseIdx := make(map[string]*Manifest)
	for _, m := range baseline {
		k := fmt.Sprintf("%s-s%d", m.Bench, m.Scale)
		if prev, dup := baseIdx[k]; dup {
			return nil, fmt.Errorf("runstore: pareto baseline is ambiguous: both %s and %s match %s", prev.CellKey, m.CellKey, k)
		}
		baseIdx[k] = m
	}
	byCfg := make(map[string][]*Manifest)
	var order []string
	for _, m := range candidates {
		if _, ok := byCfg[m.CfgHash]; !ok {
			order = append(order, m.CfgHash)
		}
		byCfg[m.CfgHash] = append(byCfg[m.CfgHash], m)
	}
	var pts []ParetoPoint
	for _, ch := range order {
		ms := byCfg[ch]
		var inv float64 // sum of 1/speedup for the weighted average
		var n int
		for _, m := range ms {
			base, ok := baseIdx[fmt.Sprintf("%s-s%d", m.Bench, m.Scale)]
			if !ok || m.Stats.Cycles == 0 {
				continue
			}
			sp := float64(base.Stats.Cycles) / float64(m.Stats.Cycles)
			if sp <= 0 {
				continue
			}
			inv += 1 / sp
			n++
		}
		if n == 0 {
			continue
		}
		rep := ms[0]
		pts = append(pts, ParetoPoint{
			CfgHash:  ch,
			Config:   rep.Config,
			TUs:      rep.TUs,
			SideKind: rep.SideKind,
			SideEnts: rep.SideEntries,
			CostKB:   rep.HardwareCostKB(),
			Speedup:  float64(n) / inv,
			Benches:  n,
		})
	}
	// Frontier: a point survives when no other point has cost <= and
	// speedup >= with at least one strict.
	for i := range pts {
		dominated := false
		for j := range pts {
			if i == j {
				continue
			}
			if pts[j].CostKB <= pts[i].CostKB && pts[j].Speedup >= pts[i].Speedup &&
				(pts[j].CostKB < pts[i].CostKB || pts[j].Speedup > pts[i].Speedup) {
				dominated = true
				break
			}
		}
		pts[i].Frontier = !dominated
	}
	sort.Slice(pts, func(i, j int) bool {
		if pts[i].CostKB != pts[j].CostKB {
			return pts[i].CostKB < pts[j].CostKB
		}
		return pts[i].Speedup > pts[j].Speedup
	})
	return pts, nil
}
