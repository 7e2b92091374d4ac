package stats

import (
	"math"
	"math/rand/v2"
	"sort"
	"testing"
)

// sortPercentiles is the sort-based percentile pick that selection
// replaces: the reference every selection result must match bit for bit.
func sortPercentiles(vals []float64, boot int, conf float64) (lo, hi float64) {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	alpha := (1 - conf) / 2
	loIdx := int(math.Floor(alpha * float64(boot)))
	hiIdx := int(math.Ceil((1-alpha)*float64(boot))) - 1
	if loIdx < 0 {
		loIdx = 0
	}
	if hiIdx >= boot {
		hiIdx = boot - 1
	}
	return s[loIdx], s[hiIdx]
}

// refBootstrapCI is BootstrapCI with the sort-based pick.
func refBootstrapCI(xs []float64, boot int, seed uint64, conf float64) (lo, hi float64) {
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
		for range xs {
			s += xs[xorshift(&rng)%n]
		}
		means[i] = s / float64(len(xs))
	}
	return sortPercentiles(means, boot, conf)
}

// same reports bit equality, so NaN matches NaN and nothing else.
func same(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// tiedValues draws n values from a pool of k distinct ones (k <= 0: all
// distinct), sprinkling infinities in when inf is set.
func tiedValues(r *rand.Rand, n, k int, inf bool) []float64 {
	vals := make([]float64, n)
	for i := range vals {
		if k > 0 {
			vals[i] = float64(r.IntN(k)) / 4
		} else {
			vals[i] = r.NormFloat64()
		}
		if inf && r.IntN(20) == 0 {
			vals[i] = math.Inf(1 - 2*r.IntN(2))
		}
	}
	return vals
}

func TestPercentilesSelectMatchesSort(t *testing.T) {
	r := rand.New(rand.NewPCG(1, 2))
	// 1e-17 rounds 1-conf to 1, the one case where the lower position
	// lies above the upper one.
	confs := []float64{0.95, 0.9, 0.5, 0.99, 0.999, 1e-17}
	for _, boot := range []int{1, 2, 3, 7, 10000} {
		for _, conf := range confs {
			for _, k := range []int{1, 2, 3, 50, 0} {
				for trial := 0; trial < 5; trial++ {
					vals := tiedValues(r, boot, k, trial%2 == 1)
					wantLo, wantHi := sortPercentiles(vals, boot, conf)
					lo, hi := percentiles(vals, boot, conf)
					if !same(lo, wantLo) || !same(hi, wantHi) {
						t.Fatalf("boot %d conf %g pool %d: selection [%g, %g], sort [%g, %g]",
							boot, conf, k, lo, hi, wantLo, wantHi)
					}
				}
			}
		}
	}
}

func TestSelectKthOrdersAroundK(t *testing.T) {
	r := rand.New(rand.NewPCG(3, 4))
	for _, n := range []int{1, 2, 5, 100, 1000} {
		for _, k := range []int{1, 3, 0} {
			vals := tiedValues(r, n, k, false)
			sorted := append([]float64(nil), vals...)
			sort.Float64s(sorted)
			kth := r.IntN(n)
			if got := selectKth(vals, kth); got != sorted[kth] {
				t.Fatalf("n %d: selectKth(%d) = %g, want %g", n, kth, got, sorted[kth])
			}
			for i, v := range vals {
				if (i < kth && v > vals[kth]) || (i > kth && v < vals[kth]) {
					t.Fatalf("n %d k %d: vals[%d] = %g on the wrong side of %g", n, kth, i, v, vals[kth])
				}
			}
			sort.Float64s(vals)
			for i := range vals {
				if vals[i] != sorted[i] {
					t.Fatalf("n %d: selection changed the values", n)
				}
			}
		}
	}
}

func TestBootstrapCIMatchesSortReference(t *testing.T) {
	r := rand.New(rand.NewPCG(5, 6))
	nan := math.NaN()
	cases := [][]float64{
		nil,
		{3.5},
		{1, 2},
		{nan, 1, 2, 3},
		{nan, nan},
		{1, nan, math.Inf(1), -4},
		{math.Inf(-1), math.Inf(1), 0, 0, 2},
		tiedValues(r, 7, 3, false),
		tiedValues(r, 40, 0, true),
	}
	for _, xs := range cases {
		for _, boot := range []int{0, 1, 2, 3, 7, 500} {
			for _, seed := range []uint64{0, 1, 99} {
				for _, conf := range []float64{0, 0.9} {
					lo, hi := BootstrapCI(xs, boot, seed, conf)
					wantLo, wantHi := refBootstrapCI(xs, boot, seed, conf)
					if !same(lo, wantLo) || !same(hi, wantHi) {
						t.Fatalf("xs %v boot %d seed %d conf %g: [%g, %g], reference [%g, %g]",
							xs, boot, seed, conf, lo, hi, wantLo, wantHi)
					}
				}
			}
		}
	}
}

func TestBootstrapRatioCIPairMatchesSingle(t *testing.T) {
	r := rand.New(rand.NewPCG(7, 8))
	windows := func(n int, zeroDen bool) (num, den []float64) {
		num, den = make([]float64, n), make([]float64, n)
		for i := range num {
			num[i] = float64(r.IntN(3000))
			den[i] = float64(1 + r.IntN(1500))
			if zeroDen && i > 0 {
				// Only the first window has accesses, so every resample
				// that misses it has a zero denominator.
				num[i], den[i] = 0, 0
			}
		}
		return num, den
	}
	type pair struct{ num1, den1, num2, den2 []float64 }
	var cases []pair
	for _, n := range []int{2, 3, 7, 13} {
		n1, d1 := windows(n, false)
		n2, d2 := windows(n, n%2 == 1)
		cases = append(cases, pair{n1, d1, n2, d2})
	}
	n1, d1 := windows(1, false)
	n2, d2 := windows(1, false)
	n3, d3 := windows(3, false)
	n4, d4 := windows(4, false)
	cases = append(cases,
		pair{n1, d1, n2, d2},                 // one pair each
		pair{nil, nil, nil, nil},             // empty
		pair{n3, d3, n4, d4},                 // estimators over different window counts
		pair{n3, d3[:2], n3, d3},             // mismatched first estimator
		pair{n4, d4, n4[:3], d4},             // mismatched second estimator
		pair{n3, d3, nil, nil},               // one empty estimator
		pair{n3, d3, n3, make([]float64, 3)}, // all-zero denominators
	)
	for ci, c := range cases {
		for _, boot := range []int{0, 1, 2, 500} {
			for _, seed := range []uint64{0, 1, 99} {
				for _, conf := range []float64{0, 0.9} {
					lo1, hi1, lo2, hi2 := BootstrapRatioCIPair(c.num1, c.den1, c.num2, c.den2, boot, seed, conf)
					wantLo1, wantHi1 := BootstrapRatioCI(c.num1, c.den1, boot, seed, conf)
					wantLo2, wantHi2 := BootstrapRatioCI(c.num2, c.den2, boot, seed, conf)
					if !same(lo1, wantLo1) || !same(hi1, wantHi1) || !same(lo2, wantLo2) || !same(hi2, wantHi2) {
						t.Fatalf("case %d boot %d seed %d conf %g: pair [%g, %g] [%g, %g], single [%g, %g] [%g, %g]",
							ci, boot, seed, conf, lo1, hi1, lo2, hi2, wantLo1, wantHi1, wantLo2, wantHi2)
					}
				}
			}
		}
	}
}
