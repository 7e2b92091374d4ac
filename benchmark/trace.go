package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strings"
	"time"

	"repro/internal/harness"
	"repro/internal/interp"
	"repro/internal/isa"
	"repro/internal/runstore"
	"repro/internal/workload"
)

// tracer records a span around every layer call the benchmark makes, in
// memory, plus the harness numbers of the traced pass. The benchmark calls
// layers from one goroutine, so spans nest as a stack. A nil tracer records
// nothing.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int // indexes into spans of the spans not yet ended

	refSeconds float64   // time in Runner.Reference (or interp.Run)
	cellWalls  []float64 // per-cell simulation wall seconds
	passWall   float64
	workers    int
}

type span struct {
	name       string
	parent     int // index into spans, -1 at the top
	start, end time.Duration
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns the function that ends it.
func (t *tracer) begin(name string) func() {
	if t == nil {
		return func() {}
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	idx := len(t.spans)
	t.spans = append(t.spans, span{name: name, parent: parent, start: time.Since(t.t0)})
	t.open = append(t.open, idx)
	return func() {
		t.spans[idx].end = time.Since(t.t0)
		t.open = t.open[:len(t.open)-1]
	}
}

// references times Runner.Reference for every benchmark, before the suite
// needs it.
func (t *tracer) references(r *harness.Runner) error {
	start := time.Now()
	for _, w := range workload.All() {
		end := t.begin("Runner.Reference " + w.Short)
		_, err := r.Reference(w.Short)
		end()
		if err != nil {
			return err
		}
	}
	t.refSeconds += time.Since(start).Seconds()
	return nil
}

// interpReferences times the functional reference of each program, the
// check a harness would run for each of them.
func (t *tracer) interpReferences(progs map[string]*isa.Program) error {
	start := time.Now()
	for name, p := range progs {
		end := t.begin("interp.Run " + name)
		_, err := interp.Run(p)
		end()
		if err != nil {
			return err
		}
	}
	t.refSeconds += time.Since(start).Seconds()
	return nil
}

// collectCells reads the per-cell simulation wall times from the archive
// manifests the traced pass left in dir.
func (t *tracer) collectCells(dir string, workers int, passWall float64) error {
	st, err := runstore.Open(dir)
	if err != nil {
		return err
	}
	for _, m := range st.All() {
		t.cellWalls = append(t.cellWalls, m.WallSeconds)
	}
	t.workers, t.passWall = workers, passWall
	return st.Close()
}

func (t *tracer) harnessMetrics(m *metrics) {
	var busy float64
	ms := make([]float64, len(t.cellWalls))
	for i, w := range t.cellWalls {
		busy += w
		ms[i] = w * 1e3
	}
	m.add("harness.ref_s", t.refSeconds, "s")
	m.add("harness.cell_ms.p50", quantile(ms, 0.5), "ms")
	m.add("harness.cell_ms.p95", quantile(ms, 0.95), "ms")
	m.add("harness.busy_frac", busy/(float64(t.workers)*t.passWall), "ratio")
	m.add("harness.fresh_cells", float64(len(t.cellWalls)), "count")
}

// writePerfetto writes the spans as Chrome trace-event JSON, which
// Perfetto and chrome://tracing load.
func (t *tracer) writePerfetto(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	evs := make([]event, len(t.spans))
	for i, s := range t.spans {
		evs[i] = event{
			Name: s.name, Ph: "X", Pid: 1, Tid: 1,
			Ts:   float64(s.start.Nanoseconds()) / 1e3,
			Dur:  float64((s.end - s.start).Nanoseconds()) / 1e3,
			Args: map[string]int{"id": i, "parent": s.parent},
		}
	}
	raw, err := json.Marshal(map[string]any{"traceEvents": evs, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}

// shareBuckets are the host-time buckets of the cpu_share metrics: the
// simulator's layers by package, the Go runtime, and everything else.
var shareBuckets = []string{"core", "sta", "mem", "cache", "isa", "interp", "bpred", "stats", "harness", "runstore", "runtime", "other"}

// packageBucket maps the simulator's packages that are not buckets of
// their own onto the layer they belong to.
var packageBucket = map[string]string{"sample": "sta", "memimg": "mem", "asm": "isa", "workload": "isa"}

// cpuShares buckets the profile's flat samples by package, using the pprof
// tool that ships with Go.
func cpuShares(profile string, m *metrics) error {
	out, err := exec.Command("go", "tool", "pprof", "-top", "-nodecount=100000", "-nodefraction=0", profile).Output()
	if err != nil {
		return fmt.Errorf("go tool pprof: %w", err)
	}
	flat := map[string]float64{}
	var total float64
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) < 6 || !strings.HasSuffix(f[1], "%") || !strings.HasSuffix(f[4], "%") {
			continue
		}
		d, err := time.ParseDuration(f[0])
		if err != nil {
			continue // the column header
		}
		flat[bucketOf(f[5])] += d.Seconds()
		total += d.Seconds()
	}
	if total == 0 {
		return fmt.Errorf("cpu profile %s has no samples", profile)
	}
	for _, b := range shareBuckets {
		m.add("cpu_share."+b, flat[b]/total, "ratio")
	}
	return nil
}

// bucketOf maps a pprof function name such as
// "repro/internal/core.(*Core).issue" to its share bucket.
func bucketOf(fn string) string {
	pkg := fn
	slash := strings.LastIndex(pkg, "/")
	if dot := strings.Index(pkg[slash+1:], "."); dot >= 0 {
		pkg = pkg[:slash+1+dot]
	}
	switch {
	case strings.HasPrefix(pkg, "repro/internal/"):
		name := strings.TrimPrefix(pkg, "repro/internal/")
		if b, ok := packageBucket[name]; ok {
			return b
		}
		for _, b := range shareBuckets {
			if b == name {
				return b
			}
		}
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime"
	}
	return "other"
}
