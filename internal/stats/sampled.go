// Sampled-simulation estimates: when a run executes only measurement
// windows in detail and fast-forwards the rest on the functional
// interpreter, the deterministic counters in Sim cover the detailed windows
// only, and a Sampled record carries the whole-run point estimates with
// confidence intervals. A nil Sampled pointer marks a fully detailed run;
// the memo-key suffix derived from SampleKey keeps sampled and detailed
// runs from ever silently comparing as equals anywhere downstream (harness
// memoization, the ledger, runstore manifests, simql diffs).
package stats

import (
	"fmt"
	"math"
	"slices"
	"sort"
)

// Sampled is the statistical estimate attached to a sampled run's Sim.
type Sampled struct {
	// Configuration echo (instruction counts per sampling period). These
	// feed SampleKey, so two runs with different sampling regimes hash to
	// different memo keys.
	WarmupInsts  uint64 `json:"warmup_insts"`
	MeasureInsts uint64 `json:"measure_insts"`
	PeriodInsts  uint64 `json:"period_insts"`

	// Coverage: what actually ran in detail vs. functionally.
	Windows        int    `json:"windows"`         // closed measurement windows
	DetailedCycles uint64 `json:"detailed_cycles"` // == Sim.Cycles
	DetailedInsts  uint64 `json:"detailed_insts"`  // correct-path commits simulated in detail
	FFInsts        uint64 `json:"ff_insts"`        // instructions fast-forwarded functionally

	// Point estimates with percentile-bootstrap 95% intervals over the
	// per-window measurements. EstCycles is the headline: detailed cycles
	// plus the fast-forwarded instructions at the measured IPC.
	EstCycles   float64 `json:"est_cycles"`
	EstCyclesLo float64 `json:"est_cycles_lo"`
	EstCyclesHi float64 `json:"est_cycles_hi"`
	IPC         float64 `json:"ipc"`
	IPCLo       float64 `json:"ipc_lo"`
	IPCHi       float64 `json:"ipc_hi"`
	L1DMiss     float64 `json:"l1d_miss"`
	L1DMissLo   float64 `json:"l1d_miss_lo"`
	L1DMissHi   float64 `json:"l1d_miss_hi"`
}

// SampleKey renders a sampling regime as the canonical memo-key suffix.
// Every producer (the harness memoizer, runstore manifests, the CLIs) must
// derive the suffix through this one function so content addresses agree.
func SampleKey(warmup, measure, period uint64) string {
	return fmt.Sprintf("sample{w:%d,m:%d,p:%d}", warmup, measure, period)
}

// Key returns the memo-key suffix of this estimate's sampling regime.
func (sp *Sampled) Key() string {
	return SampleKey(sp.WarmupInsts, sp.MeasureInsts, sp.PeriodInsts)
}

// EstCycles returns the run's best whole-run cycle estimate: the sampled
// estimate when one is attached, the exact detailed count otherwise.
// Cross-run consumers (speedup tables, diffs) use this so sampled and
// detailed results flow through the same arithmetic.
func (s *Sim) EstCycles() float64 {
	if s.Sampled != nil {
		return s.Sampled.EstCycles
	}
	return float64(s.Cycles)
}

// EstIPC returns the best whole-run IPC estimate (see EstCycles).
func (s *Sim) EstIPC() float64 {
	if s.Sampled != nil {
		return s.Sampled.IPC
	}
	return s.IPC()
}

// EstL1DMissRate returns the best whole-run L1D miss-rate estimate.
func (s *Sim) EstL1DMissRate() float64 {
	if s.Sampled != nil {
		return s.Sampled.L1DMiss
	}
	return s.L1DMissRate()
}

// BootstrapCI returns the percentile bootstrap confidence interval of the
// mean of xs: boot resamples with replacement, drawn from a deterministic
// xorshift64 stream so the same inputs always produce the same interval.
// (Shared by runstore's paired diffs and the sampling estimator.)
func BootstrapCI(xs []float64, boot int, seed uint64, conf float64) (lo, hi float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	if len(xs) == 1 {
		return xs[0], xs[0]
	}
	boot, conf, rng := bootParams(boot, conf, seed)
	means := make([]float64, boot)
	n := uint64(len(xs))
	for i := range means {
		var s float64
		for j := 0; j < len(xs); j++ {
			s += xs[xorshift(&rng)%n]
		}
		means[i] = s / float64(len(xs))
	}
	return percentiles(means, boot, conf)
}

// BootstrapRatioCI bootstraps the ratio-of-sums estimator sum(num)/sum(den)
// over paired observations — the form window-weighted rates take (IPC =
// commits/cycles, miss rate = misses/accesses). Resampling happens over
// whole pairs, deterministic in seed. Degenerate inputs (one pair, or a
// resample with zero denominator) collapse to the point estimate.
func BootstrapRatioCI(num, den []float64, boot int, seed uint64, conf float64) (lo, hi float64) {
	if len(num) == 0 || len(num) != len(den) {
		return 0, 0
	}
	point := ratioOfSums(num, den, nil)
	if len(num) == 1 {
		return point, point
	}
	boot, conf, rng := bootParams(boot, conf, seed)
	ratios := make([]float64, boot)
	idx := make([]int, len(num))
	for i := range ratios {
		drawIndices(idx, &rng)
		ratios[i] = resampledRatio(num, den, idx, point)
	}
	return percentiles(ratios, boot, conf)
}

// BootstrapRatioCIPair returns what BootstrapRatioCI(num1, den1, ...) and
// BootstrapRatioCI(num2, den2, ...) with the same boot, seed and conf
// return, bit for bit, drawing the shared resample indices once. The two
// estimators must be over the same observations (equal lengths) to share
// draws; otherwise each is bootstrapped on its own.
func BootstrapRatioCIPair(num1, den1, num2, den2 []float64, boot int, seed uint64, conf float64) (lo1, hi1, lo2, hi2 float64) {
	n := len(num1)
	if n < 2 || len(den1) != n || len(num2) != n || len(den2) != n {
		lo1, hi1 = BootstrapRatioCI(num1, den1, boot, seed, conf)
		lo2, hi2 = BootstrapRatioCI(num2, den2, boot, seed, conf)
		return lo1, hi1, lo2, hi2
	}
	point1, point2 := ratioOfSums(num1, den1, nil), ratioOfSums(num2, den2, nil)
	boot, conf, rng := bootParams(boot, conf, seed)
	ratios := make([]float64, 2*boot)
	ratios1, ratios2 := ratios[:boot], ratios[boot:]
	idx := make([]int, n)
	for i := range ratios1 {
		drawIndices(idx, &rng)
		ratios1[i] = resampledRatio(num1, den1, idx, point1)
		ratios2[i] = resampledRatio(num2, den2, idx, point2)
	}
	lo1, hi1 = percentiles(ratios1, boot, conf)
	lo2, hi2 = percentiles(ratios2, boot, conf)
	return lo1, hi1, lo2, hi2
}

// drawIndices fills idx with one resample's indices into len(idx)
// observations.
func drawIndices(idx []int, rng *uint64) {
	n := uint64(len(idx))
	for j := range idx {
		idx[j] = int(xorshift(rng) % n)
	}
}

// resampledRatio is the ratio of sums over the resample idx, or point when
// the resample's denominator makes it undefined.
func resampledRatio(num, den []float64, idx []int, point float64) float64 {
	r := ratioOfSums(num, den, idx)
	if math.IsNaN(r) || math.IsInf(r, 0) {
		return point
	}
	return r
}

func ratioOfSums(num, den []float64, idx []int) float64 {
	var sn, sd float64
	if idx == nil {
		for i := range num {
			sn += num[i]
			sd += den[i]
		}
	} else {
		for _, i := range idx {
			sn += num[i]
			sd += den[i]
		}
	}
	if sd == 0 {
		return 0
	}
	return sn / sd
}

func bootParams(boot int, conf float64, seed uint64) (int, float64, uint64) {
	if boot <= 0 {
		boot = 10000
	}
	if conf <= 0 || conf >= 1 {
		conf = 0.95
	}
	if seed == 0 {
		seed = 0x9e3779b97f4a7c15
	}
	return boot, conf, seed
}

func xorshift(rng *uint64) uint64 {
	*rng ^= *rng << 13
	*rng ^= *rng >> 7
	*rng ^= *rng << 17
	return *rng
}

// percentiles returns the order statistics of vals at the lower and upper
// conf-interval positions, the values sort.Float64s would leave there. It
// finds them by selection, reordering vals. Values that include a NaN are
// sorted instead, because sort.Float64s orders NaN before every number and
// selection's comparisons cannot.
func percentiles(vals []float64, boot int, conf float64) (lo, hi float64) {
	alpha := (1 - conf) / 2
	loIdx := int(math.Floor(alpha * float64(boot)))
	hiIdx := int(math.Ceil((1-alpha)*float64(boot))) - 1
	if loIdx < 0 {
		loIdx = 0
	}
	if hiIdx >= boot {
		hiIdx = boot - 1
	}
	if slices.ContainsFunc(vals, math.IsNaN) {
		sort.Float64s(vals)
		return vals[loIdx], vals[hiIdx]
	}
	hi = selectKth(vals, hiIdx)
	// selectKth leaves no value above hi in vals[:hiIdx] and none below it
	// in vals[hiIdx+1:].
	if loIdx <= hiIdx {
		lo = selectKth(vals[:hiIdx+1], loIdx)
	} else { // conf so small that 1-conf rounds to 1
		lo = selectKth(vals[hiIdx:], loIdx-hiIdx)
	}
	return lo, hi
}

// selectKth returns the k-th smallest value of a (0-based), reordering a so
// that a[:k] holds no value above it and a[k+1:] none below. a must hold no
// NaN. Quickselect with a median-of-three pivot and a three-way partition,
// so runs of ties cost one pass; an unlucky pivot sequence falls back to
// sorting the range that is left.
func selectKth(a []float64, k int) float64 {
	lo, hi := 0, len(a)
	for rounds := 0; hi-lo > 1; rounds++ {
		if rounds == 64 {
			sort.Float64s(a[lo:hi])
			break
		}
		p := medianOf3(a[lo], a[lo+(hi-lo)/2], a[hi-1])
		lt, i, gt := lo, lo, hi
		for i < gt {
			switch v := a[i]; {
			case v < p:
				a[lt], a[i] = v, a[lt]
				lt++
				i++
			case v > p:
				gt--
				a[gt], a[i] = v, a[gt]
			default:
				i++
			}
		}
		// a[lo:lt] < p, a[lt:gt] == p, a[gt:hi] > p.
		switch {
		case k < lt:
			hi = lt
		case k >= gt:
			lo = gt
		default:
			return a[k]
		}
	}
	return a[k]
}

func medianOf3(a, b, c float64) float64 {
	if a > b {
		a, b = b, a
	}
	if b > c {
		b = c
	}
	return max(a, b)
}
