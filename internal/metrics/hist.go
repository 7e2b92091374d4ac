package metrics

import "math/bits"

// Histogram counts observations in log2 buckets: bucket i holds values v
// with 2^(i-1) < v <= 2^i (bucket 0 holds 0 and 1). Cycle latencies span
// five orders of magnitude (L1 hit at 1 cycle to DRAM round trips in the
// hundreds, thread lifetimes in the hundreds of thousands), so power-of-two
// resolution captures the shape at constant memory.
type Histogram struct {
	Name string
	Unit string // "cycles" or "insts"

	buckets  [65]uint64
	count    uint64
	sum      uint64
	min, max uint64
}

// NewHistogram names an empty histogram.
func NewHistogram(name, unit string) *Histogram {
	return &Histogram{Name: name, Unit: unit}
}

// Observe records one value. O(1), allocation-free; a nil histogram
// ignores it.
func (h *Histogram) Observe(v uint64) {
	if h == nil {
		return
	}
	b := 0
	if v > 1 {
		b = bits.Len64(v - 1)
	}
	h.buckets[b]++
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count }

// Mean returns the arithmetic mean of all observations.
func (h *Histogram) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.count)
}

// Min returns the smallest observation (0 when empty).
func (h *Histogram) Min() uint64 { return h.min }

// Max returns the largest observation (0 when empty).
func (h *Histogram) Max() uint64 { return h.max }

// Bucket is one non-empty histogram bin covering (Lo, Hi].
type Bucket struct {
	Lo    uint64 `json:"lo"` // exclusive lower bound (0 for the first bin)
	Hi    uint64 `json:"hi"` // inclusive upper bound
	Count uint64 `json:"count"`
}

// Buckets returns the non-empty bins in ascending order.
func (h *Histogram) Buckets() []Bucket {
	var out []Bucket
	for i, n := range h.buckets {
		if n == 0 {
			continue
		}
		b := Bucket{Hi: 1, Count: n}
		if i > 0 {
			b.Lo = uint64(1) << (i - 1)
			b.Hi = uint64(1) << i
		}
		out = append(out, b)
	}
	return out
}

// histExport is the JSON schema of one histogram.
type histExport struct {
	Name    string   `json:"name"`
	Unit    string   `json:"unit"`
	Count   uint64   `json:"count"`
	Min     uint64   `json:"min"`
	Max     uint64   `json:"max"`
	Mean    float64  `json:"mean"`
	Buckets []Bucket `json:"buckets"`
}

func (h *Histogram) export() histExport {
	return histExport{
		Name: h.Name, Unit: h.Unit,
		Count: h.count, Min: h.min, Max: h.max, Mean: h.Mean(),
		Buckets: h.Buckets(),
	}
}
