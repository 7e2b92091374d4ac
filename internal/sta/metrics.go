// Metrics wiring: when a metrics.Collector is attached to a Machine, this
// file connects every instrumentation point before the run starts — the
// cores' load-to-use probes, the data units' latency probes, the counter
// registry (scoped per thread unit, per cache, and machine-wide), the
// interval sampler's derived series, and the timeline tracer.
package sta

import (
	"fmt"

	"repro/internal/metrics"
	"repro/internal/trace"
)

// attachAttrib wires the attribution collector into every data unit and,
// when a metrics collector is also attached, into its counter registry and
// timeline. A sampled run drops it instead (see Machine.Attrib). Called
// once at the top of Run, after attachMetrics.
func (m *Machine) attachAttrib() {
	if m.Sample.Enabled() {
		m.Attrib = nil
	}
	a := m.Attrib
	if a == nil {
		return
	}
	m.hier.SetAttrib(a)
	if c := m.Metrics; c != nil {
		a.RegisterInto(c.Registry)
		if a.Timeline == nil {
			a.Timeline = c.Timeline
		}
	}
}

// attachMetrics wires the collector into the machine; called once at the
// top of Run. With a nil collector the machine runs uninstrumented: every
// hook site below reduces to an untaken nil check.
func (m *Machine) attachMetrics() {
	c := m.Metrics
	if c == nil {
		return
	}
	for i := range m.tus {
		m.tus[i].core.SetMetrics(c)
	}
	m.hier.SetMetrics(c)
	if c.Timeline != nil {
		if m.Trace != nil {
			m.Trace = trace.Multi{m.Trace, c.Timeline}
		} else {
			m.Trace = c.Timeline
		}
	}
	if c.Registry != nil {
		m.registerCounters()
	}
	if c.Sampler != nil {
		m.registerSeries()
	}
}

// registerCounters exposes every simulator statistic in the registry,
// scoped "tuN" (core counters), "l1dN" (data unit counters), "l2", and
// "machine". Values are read at export time.
func (m *Machine) registerCounters() {
	reg := m.Metrics.Registry
	for i := range m.tus {
		tu := &m.tus[i]
		cs := &tu.core.Stats
		scope := fmt.Sprintf("tu%d", tu.id)
		reg.RegisterFunc(scope, "commits", func() uint64 { return cs.Commits })
		reg.RegisterFunc(scope, "wrong_commits", func() uint64 { return cs.WrongCommits })
		reg.RegisterFunc(scope, "branches", func() uint64 { return cs.Branches })
		reg.RegisterFunc(scope, "mispredicts", func() uint64 { return cs.Mispredicts })
		reg.RegisterFunc(scope, "loads", func() uint64 { return cs.Loads })
		reg.RegisterFunc(scope, "stores", func() uint64 { return cs.Stores })
		reg.RegisterFunc(scope, "wrong_path_loads", func() uint64 { return cs.WrongPathLoadsIssued })
		reg.RegisterFunc(scope, "squashed_insts", func() uint64 { return cs.SquashedInsts })
		reg.RegisterFunc(scope, "fetch_stall_icache", func() uint64 { return cs.FetchStallICache })

		du := m.hier.DUnit(tu.id)
		cscope := fmt.Sprintf("l1d%d", tu.id)
		reg.RegisterFunc(cscope, "accesses", func() uint64 { return du.Accesses })
		reg.RegisterFunc(cscope, "misses", func() uint64 { return du.Misses })
		reg.RegisterFunc(cscope, "traffic", func() uint64 { return du.Traffic })
		reg.RegisterFunc(cscope, "wrong_accesses", func() uint64 { return du.WrongAcc })
		reg.RegisterFunc(cscope, "side_hits", func() uint64 { return du.SideHits })
		reg.RegisterFunc(cscope, "side_inserts", func() uint64 { return du.SideInserts })
		reg.RegisterFunc(cscope, "pref_issued", func() uint64 { return du.PrefIssued })
		reg.RegisterFunc(cscope, "pref_useful", func() uint64 { return du.PrefUseful })
		reg.RegisterFunc(cscope, "wrong_useful", func() uint64 { return du.WrongUseful })
		reg.RegisterFunc(cscope, "update_recv", func() uint64 { return du.UpdateRecv })
	}
	reg.RegisterFunc("l2", "accesses", func() uint64 { return m.hier.L2Accesses })
	reg.RegisterFunc("l2", "misses", func() uint64 { return m.hier.L2Misses })
	reg.RegisterFunc("l2", "dram_fills", func() uint64 { return m.hier.DRAMFills })
	reg.RegisterFunc("l2", "writebacks", func() uint64 { return m.hier.Writebacks })
	reg.RegisterFunc("l2", "update_bus", func() uint64 { return m.hier.UpdateBus })
	reg.RegisterFunc("machine", "forks", func() uint64 { return m.forks })
	reg.RegisterFunc("machine", "aborts", func() uint64 { return m.aborts })
	reg.RegisterFunc("machine", "wrong_threads", func() uint64 { return m.wrongThreads })
	reg.RegisterFunc("machine", "membuf_overflows", func() uint64 { return m.mbOverflows })
}

// registerSeries defines the interval time series: rates from cumulative
// counters, occupancies as levels. Probes run on the simulation goroutine
// at interval boundaries only.
func (m *Machine) registerSeries() {
	s := m.Metrics.Sampler
	sumTU := func(f func(tu *threadUnit) uint64) func() float64 {
		return func() float64 {
			var n uint64
			for i := range m.tus {
				n += f(&m.tus[i])
			}
			return float64(n)
		}
	}
	commits := sumTU(func(tu *threadUnit) uint64 { return tu.core.Stats.Commits })
	l1Acc := sumTU(func(tu *threadUnit) uint64 { return m.hier.DUnit(tu.id).Accesses })
	l1Miss := sumTU(func(tu *threadUnit) uint64 { return m.hier.DUnit(tu.id).Misses })
	sideHits := sumTU(func(tu *threadUnit) uint64 { return m.hier.DUnit(tu.id).SideHits })
	missEvents := sumTU(func(tu *threadUnit) uint64 {
		du := m.hier.DUnit(tu.id)
		return du.Misses + du.SideHits
	})
	wrongAcc := sumTU(func(tu *threadUnit) uint64 { return m.hier.DUnit(tu.id).WrongAcc })

	s.Add("ipc", metrics.PerCycle, commits, nil)
	s.Add("l1d_miss_rate", metrics.Ratio, l1Miss, l1Acc)
	s.Add("l2_miss_rate", metrics.Ratio,
		func() float64 { return float64(m.hier.L2Misses) },
		func() float64 { return float64(m.hier.L2Accesses) })
	s.Add("wec_hit_rate", metrics.Ratio, sideHits, missEvents)
	s.Add("wrong_load_rate", metrics.PerCycle, wrongAcc, nil)
	s.Add("tu_occupancy", metrics.Level, func() float64 {
		n := 0
		for i := range m.tus {
			if m.tus[i].state != tuIdle {
				n++
			}
		}
		return float64(n)
	}, nil)
	s.Add("membuf_occupancy", metrics.Level,
		sumTU(func(tu *threadUnit) uint64 { return uint64(tu.memBuf.size()) }), nil)
	s.Add("forks", metrics.Delta, func() float64 { return float64(m.forks) }, nil)
	s.Add("aborts", metrics.Delta, func() float64 { return float64(m.aborts) }, nil)
}
