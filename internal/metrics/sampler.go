package metrics

import (
	"strconv"
	"strings"
)

// SeriesKind says how a sampled column is derived from its probe(s) at
// each interval boundary.
type SeriesKind uint8

// Series kinds.
const (
	// Level samples the probe's instantaneous value (occupancies).
	Level SeriesKind = iota
	// Delta samples the probe's increase over the interval (event counts).
	Delta
	// PerCycle samples the probe's increase divided by the interval's
	// cycle count (rates such as IPC or wrong-loads/cycle).
	PerCycle
	// Ratio samples the increase of the numerator probe divided by the
	// increase of the denominator probe (miss rates). 0/0 samples as 0.
	Ratio
)

type series struct {
	name    string
	kind    SeriesKind
	num     func() float64
	den     func() float64 // Ratio only
	lastNum float64
	lastDen float64
}

// Sampler snapshots a set of derived series every Interval cycles. It is
// driven from the simulation loop via MaybeSample; one uint64 compare per
// cycle is the whole cost between boundaries.
type Sampler struct {
	Interval uint64

	next      uint64
	lastCycle uint64
	cols      []*series
	cycles    []uint64
	rows      [][]float64
}

// NewSampler samples every interval cycles (interval must be positive).
func NewSampler(interval uint64) *Sampler {
	if interval == 0 {
		interval = 1
	}
	return &Sampler{Interval: interval, next: interval}
}

// Add registers a column. For Ratio, den is required; other kinds ignore
// it. Registration order fixes the column order of the export.
func (s *Sampler) Add(name string, kind SeriesKind, num func() float64, den func() float64) {
	s.cols = append(s.cols, &series{name: name, kind: kind, num: num, den: den})
}

// MaybeSample appends a row when cycle has reached the next boundary.
func (s *Sampler) MaybeSample(cycle uint64) {
	if cycle < s.next {
		return
	}
	s.sample(cycle)
	s.next = cycle + s.Interval
}

// FastForward replays every sample boundary in (from, to] in bulk, exactly
// as if MaybeSample had been called once per cycle. The event-skip fast
// path uses it to jump over idle spans in O(samples) instead of O(cycles):
// because no probe changes while the machine is idle, sampling at the same
// boundary cycles yields bit-identical rows.
func (s *Sampler) FastForward(from, to uint64) {
	if to <= from || s.next > to {
		return
	}
	c := s.next
	if c <= from {
		// Overdue boundary: the per-cycle loop would first fire at from+1.
		c = from + 1
	}
	for c <= to {
		s.sample(c)
		s.next = c + s.Interval
		c = s.next
	}
}

// NextBoundary returns the cycle of the next sample row.
func (s *Sampler) NextBoundary() uint64 { return s.next }

// Finish appends a final partial row covering the tail of the run.
func (s *Sampler) Finish(cycle uint64) {
	if cycle > s.lastCycle {
		s.sample(cycle)
	}
}

func (s *Sampler) sample(cycle uint64) {
	span := float64(cycle - s.lastCycle)
	row := make([]float64, len(s.cols))
	for i, c := range s.cols {
		cur := c.num()
		switch c.kind {
		case Level:
			row[i] = cur
		case Delta:
			row[i] = cur - c.lastNum
		case PerCycle:
			if span > 0 {
				row[i] = (cur - c.lastNum) / span
			}
		case Ratio:
			curDen := c.den()
			if d := curDen - c.lastDen; d > 0 {
				row[i] = (cur - c.lastNum) / d
			}
			c.lastDen = curDen
		}
		c.lastNum = cur
	}
	s.cycles = append(s.cycles, cycle)
	s.rows = append(s.rows, row)
	s.lastCycle = cycle
}

// Columns returns the column names in export order (after "cycle").
func (s *Sampler) Columns() []string {
	out := make([]string, len(s.cols))
	for i, c := range s.cols {
		out[i] = c.name
	}
	return out
}

// Rows returns the sampled rows; row i corresponds to Cycles()[i].
func (s *Sampler) Rows() [][]float64 { return s.rows }

// Cycles returns the cycle stamp of each row.
func (s *Sampler) Cycles() []uint64 { return s.cycles }

// CSV renders the series as comma-separated values with a "cycle" first
// column. Floats use the shortest round-trip representation.
func (s *Sampler) CSV() string {
	var sb strings.Builder
	sb.WriteString("cycle")
	for _, c := range s.cols {
		sb.WriteByte(',')
		sb.WriteString(c.name)
	}
	sb.WriteByte('\n')
	for i, row := range s.rows {
		sb.WriteString(strconv.FormatUint(s.cycles[i], 10))
		for _, v := range row {
			sb.WriteByte(',')
			sb.WriteString(formatSample(v))
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// formatSample renders a sample value compactly: integers without a
// decimal point, everything else with four significant decimals.
func formatSample(v float64) string {
	if v == float64(int64(v)) {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', 6, 64)
}

// seriesExport is the JSON schema of the interval series.
type seriesExport struct {
	Interval uint64      `json:"interval"`
	Columns  []string    `json:"columns"` // first column is always "cycle"
	Rows     [][]float64 `json:"rows"`
}

func (s *Sampler) export() seriesExport {
	cols := append([]string{"cycle"}, s.Columns()...)
	rows := make([][]float64, len(s.rows))
	for i, r := range s.rows {
		rows[i] = append([]float64{float64(s.cycles[i])}, r...)
	}
	return seriesExport{Interval: s.Interval, Columns: cols, Rows: rows}
}
