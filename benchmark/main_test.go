package main

import "testing"

func TestBucketOf(t *testing.T) {
	for fn, want := range map[string]string{
		"repro/internal/core.(*Core).issueRange":       "core",
		"repro/internal/sample.(*Sampler).Due":         "sta",
		"repro/internal/memimg.(*Image).ReadWord":      "mem",
		"repro/internal/chaos.(*Injector).Hit":         "other",
		"runtime.mallocgc":                             "runtime",
		"internal/runtime/maps.(*Map).getWithKeySmall": "runtime",
		"sync/atomic.(*Int64).Load":                    "other",
		"main.calLoop":                                 "other",
	} {
		if got := bucketOf(fn); got != want {
			t.Errorf("bucketOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 2.5}, {1, 4}, {0.25, 1.75}} {
		if got := quantile(xs, c.q); got != c.want {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if xs[0] != 4 {
		t.Errorf("quantile reordered its input: %v", xs)
	}
}
