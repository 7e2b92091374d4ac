package metrics

import (
	"math"
	"testing"

	"repro/internal/trace"
)

func TestRegistrySnapshot(t *testing.T) {
	r := NewRegistry()
	ext := uint64(7)
	r.RegisterFunc("l2", "misses", func() uint64 { return ext })
	r.RegisterFunc("tu0", "commits", func() uint64 { return 42 })
	r.RegisterFunc("tu0", "occupancy", func() uint64 { return 3 })

	snap := r.Snapshot()
	want := map[string]uint64{
		"l2/misses": 7, "tu0/commits": 42, "tu0/occupancy": 3,
	}
	if len(snap) != len(want) {
		t.Fatalf("snapshot has %d entries, want %d", len(snap), len(want))
	}
	for i, kv := range snap {
		if want[kv.Key] != kv.Value {
			t.Errorf("snapshot[%d] = %s=%d, want %d", i, kv.Key, kv.Value, want[kv.Key])
		}
		if i > 0 && snap[i-1].Key >= kv.Key {
			t.Errorf("snapshot not key-sorted: %s before %s", snap[i-1].Key, kv.Key)
		}
	}
	// Live: a later snapshot sees new increments.
	ext = 9
	if got := r.Snapshot()[0].Value; got != 9 {
		t.Errorf("RegisterFunc not read live: %d", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := NewHistogram("lat", "cycles")
	// Bucket i covers (2^(i-1), 2^i]; bucket 0 covers {0, 1}.
	for _, v := range []uint64{0, 1, 2, 3, 4, 5, 8, 9, 1000} {
		h.Observe(v)
	}
	if h.Count() != 9 || h.Min() != 0 || h.Max() != 1000 {
		t.Fatalf("count/min/max = %d/%d/%d", h.Count(), h.Min(), h.Max())
	}
	got := h.Buckets()
	want := []Bucket{
		{Lo: 0, Hi: 1, Count: 2},      // 0, 1
		{Lo: 1, Hi: 2, Count: 1},      // 2
		{Lo: 2, Hi: 4, Count: 2},      // 3, 4
		{Lo: 4, Hi: 8, Count: 2},      // 5, 8
		{Lo: 8, Hi: 16, Count: 1},     // 9
		{Lo: 512, Hi: 1024, Count: 1}, // 1000
	}
	if len(got) != len(want) {
		t.Fatalf("buckets = %+v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("bucket %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	if mean := h.Mean(); math.Abs(mean-1032.0/9) > 1e-9 {
		t.Errorf("mean = %v", mean)
	}
}

func TestSamplerKinds(t *testing.T) {
	var level, events, work float64
	var num, den float64
	s := NewSampler(100)
	s.Add("level", Level, func() float64 { return level }, nil)
	s.Add("delta", Delta, func() float64 { return events }, nil)
	s.Add("rate", PerCycle, func() float64 { return work }, nil)
	s.Add("ratio", Ratio, func() float64 { return num }, func() float64 { return den })

	// Nothing samples before the first boundary.
	s.MaybeSample(99)
	if len(s.Rows()) != 0 {
		t.Fatal("sampled before the boundary")
	}

	level, events, work, num, den = 3, 10, 50, 4, 8
	s.MaybeSample(100)
	level, events, work, num, den = 5, 25, 150, 4, 10 // ratio: 0/2 -> 0
	s.MaybeSample(200)
	s.Finish(250) // partial tail: 50 cycles
	work = 175    // unchanged after Finish; no extra row
	s.Finish(250)

	rows := s.Rows()
	if len(rows) != 3 {
		t.Fatalf("rows = %v", rows)
	}
	check := func(r []float64, want ...float64) {
		t.Helper()
		for i := range want {
			if math.Abs(r[i]-want[i]) > 1e-12 {
				t.Errorf("row %v, want %v", r, want)
				return
			}
		}
	}
	check(rows[0], 3, 10, 0.5, 0.5) // first interval: deltas from zero
	check(rows[1], 5, 15, 1, 0)     // ratio num unchanged: 0/2 = 0
	check(rows[2], 5, 0, 0, 0)      // tail row
	if cy := s.Cycles(); cy[2] != 250 {
		t.Errorf("cycles = %v", cy)
	}
}

// TestNilCollectorHooksAreSafe: every hook tolerates a nil collector and
// a collector without parts (a literal carrying only some sinks).
func TestNilCollectorHooksAreSafe(t *testing.T) {
	for _, c := range []*Collector{nil, {}} {
		c.ObserveMemAccess(0, -1, 1, 5, false)
		c.Event(trace.Event{Kind: trace.Halt})
		c.Publish(1, 1, true)
		c.MaybeSample(1000)
		c.FastForward(1000, 5000)
		c.Finish(2000)
		if c.SeriesCSV() != "" {
			t.Error("collector without a sampler produced CSV")
		}
	}
}
