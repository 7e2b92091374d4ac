package metrics

import (
	"encoding/json"
	"io"
)

// Collector bundles one simulation run's observability state: the counter
// registry, the optional interval sampler, the four latency histograms,
// and the optional Perfetto timeline. Attach one to sta.Machine.Metrics
// before Run.
//
// Every hook method below tolerates a nil receiver, so instrumentation
// sites can call them unconditionally; the hot paths in core/mem/sta still
// guard with an explicit nil check to keep the uninstrumented cost to a
// single untaken branch.
type Collector struct {
	Registry *Registry
	Sampler  *Sampler  // nil: no interval series
	Timeline *Timeline // nil: no timeline export

	// MemLatency observes the cycle latency of every demand access
	// (correct and wrong execution; prefetches excluded) from issue to
	// value availability.
	MemLatency *Histogram
	// LoadToUse observes, in instructions, the program-order distance
	// from a load to each in-flight consumer dispatched before the load
	// completed — small distances mean little latency can be hidden.
	LoadToUse *Histogram
	// WECPromotion observes, for correct-path hits in the side buffer,
	// the cycles the block sat there since its insertion (the prefetch
	// timeliness of wrong-execution fills and victims).
	WECPromotion *Histogram
	// ThreadRetire / ThreadKill observe speculative-thread lifetimes in
	// cycles, fork (or region begin) to retirement or to kill.
	ThreadRetire *Histogram
	ThreadKill   *Histogram
}

// MissSpanMin is the minimum access latency, in cycles, for which a
// timeline memory span is emitted; accesses faster than this (L1 and
// side-buffer hits) would flood the trace.
const MissSpanMin = 4

// Interval is the sampling interval, in cycles, of the time series the
// command-line tools export.
const Interval = 10000

// NewCollector builds a collector. interval > 0 attaches an interval
// sampler; 0 disables the time series. A timeline is not attached by
// default — set Timeline explicitly.
func NewCollector(interval uint64) *Collector {
	c := &Collector{
		Registry:     NewRegistry(),
		MemLatency:   NewHistogram("mem_latency", "cycles"),
		LoadToUse:    NewHistogram("load_to_use", "insts"),
		WECPromotion: NewHistogram("wec_promotion", "cycles"),
		ThreadRetire: NewHistogram("thread_retire", "cycles"),
		ThreadKill:   NewHistogram("thread_kill", "cycles"),
	}
	if interval > 0 {
		c.Sampler = NewSampler(interval)
	}
	return c
}

// ObserveMemAccess records a completed data access: issuing instruction
// (pc, -1 if unknown), issue cycle, value cycle, and whether wrong execution
// issued it. Prefetch completions are not reported here.
func (c *Collector) ObserveMemAccess(tu, pc int, start, done uint64, wrong bool) {
	if c == nil {
		return
	}
	lat := done - start
	c.MemLatency.Observe(lat)
	if c.Timeline != nil && lat >= MissSpanMin {
		c.Timeline.MemSpan(tu, start, done, wrong, pc)
	}
}

// ObserveLoadUse records one load-to-consumer distance in instructions.
func (c *Collector) ObserveLoadUse(dist uint64) {
	if c == nil {
		return
	}
	c.LoadToUse.Observe(dist)
}

// ObserveWECPromotion records the residency, in cycles, of a side-buffer
// block promoted to the L1 by a correct-path hit.
func (c *Collector) ObserveWECPromotion(cycles uint64) {
	if c == nil {
		return
	}
	c.WECPromotion.Observe(cycles)
}

// ObserveThreadLifetime records a speculative thread's lifetime from its
// start to retirement (retired=true) or to its kill (retired=false).
func (c *Collector) ObserveThreadLifetime(cycles uint64, retired bool) {
	if c == nil {
		return
	}
	if retired {
		c.ThreadRetire.Observe(cycles)
	} else {
		c.ThreadKill.Observe(cycles)
	}
}

// MaybeSample drives the interval sampler; call once per simulated cycle.
func (c *Collector) MaybeSample(cycle uint64) {
	if c == nil || c.Sampler == nil {
		return
	}
	c.Sampler.MaybeSample(cycle)
}

// FastForward replays every sample boundary in (from, to] in bulk; the
// event-skip fast path calls it instead of per-cycle MaybeSample. Rows are
// bit-identical because no counter moves while the machine is idle.
func (c *Collector) FastForward(from, to uint64) {
	if c == nil || c.Sampler == nil {
		return
	}
	c.Sampler.FastForward(from, to)
}

// Finish seals the run at its final cycle: the sampler takes a last
// partial sample and the timeline closes dangling spans.
func (c *Collector) Finish(cycle uint64) {
	if c == nil {
		return
	}
	if c.Sampler != nil {
		c.Sampler.Finish(cycle)
	}
	if c.Timeline != nil {
		c.Timeline.Finish(cycle)
	}
}

// export is the metrics JSON schema.
type export struct {
	Cycles     uint64            `json:"cycles"`
	Counters   map[string]uint64 `json:"counters"`
	Series     *seriesExport     `json:"series,omitempty"`
	Histograms []histExport      `json:"histograms"`
}

// WriteJSON writes the complete metrics export: final counter snapshot,
// the interval series (when sampled), and all histograms. Deterministic:
// counters are key-sorted, histograms in fixed order.
func (c *Collector) WriteJSON(w io.Writer, cycles uint64) error {
	e := export{Cycles: cycles, Counters: map[string]uint64{}}
	if c.Registry != nil {
		for _, kv := range c.Registry.Snapshot() {
			e.Counters[kv.Key] = kv.Value
		}
	}
	if c.Sampler != nil {
		se := c.Sampler.export()
		e.Series = &se
	}
	for _, h := range []*Histogram{c.MemLatency, c.LoadToUse, c.WECPromotion, c.ThreadRetire, c.ThreadKill} {
		if h != nil {
			e.Histograms = append(e.Histograms, h.export())
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(e)
}

// SeriesCSV renders the interval series as CSV ("" when no sampler).
func (c *Collector) SeriesCSV() string {
	if c == nil || c.Sampler == nil {
		return ""
	}
	return c.Sampler.CSV()
}
