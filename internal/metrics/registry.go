// Package metrics is the simulator's observability layer: a registry of
// named counters and gauges scoped per thread unit and per cache, an
// interval sampler that turns cumulative counters into exportable time
// series (CSV + JSON), log2-bucketed latency histograms, and a live
// progress tap that other goroutines read while a run is in flight.
//
// Everything hangs off a *Collector, the machine's one observer, attached
// before Run. Besides its own parts it carries the run's other sinks: the
// lifecycle-event stream and Perfetto timeline of internal/trace and the
// fill-attribution collector of internal/attrib.
// Every hook method is safe to call on a nil *Collector, so instrumented
// code can call them unconditionally; the instrumentation sites in
// internal/core, internal/mem, and internal/sta additionally guard with a
// nil check so an uninstrumented run pays only an untaken branch.
package metrics

import (
	"sort"
	"sync"
)

// Registry names every counter of one simulation run. Metrics are scoped
// ("tu0", "l1d3", "l2", "machine") so exports group naturally. Each is a
// simulator statistic registered as a read function and snapshotted at
// export time.
type Registry struct {
	mu    sync.Mutex
	order []string
	read  map[string]func() uint64
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{read: make(map[string]func() uint64)}
}

// RegisterFunc exposes an externally maintained statistic (for example a
// field of mem.DUnit) under scope/name; fn is called at snapshot time.
func (r *Registry) RegisterFunc(scope, name string, fn func() uint64) {
	key := scope + "/" + name
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.read[key]; !dup {
		r.order = append(r.order, key)
	}
	r.read[key] = fn
}

// Snapshot reads every registered metric, sorted by key for deterministic
// export.
func (r *Registry) Snapshot() []KV {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]KV, 0, len(r.order))
	for _, key := range r.order {
		out = append(out, KV{Key: key, Value: r.read[key]()})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// KV is one snapshotted metric.
type KV struct {
	Key   string
	Value uint64
}
