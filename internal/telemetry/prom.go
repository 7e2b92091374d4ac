package telemetry

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"repro/internal/metrics"
)

// Prometheus text exposition (version 0.0.4) written by hand: the repo
// takes no dependencies, and the format is line-oriented enough that a
// handful of helpers cover everything the suite exports. Metric names obey
// [a-zA-Z_:][a-zA-Z0-9_:]*; label values escape \, " and newline.

// promEscape escapes a label value per the exposition format.
func promEscape(v string) string {
	var b strings.Builder
	for _, r := range v {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// promSanitize rewrites an arbitrary registry key component into a legal
// metric-name fragment (anything outside [a-zA-Z0-9_] becomes '_').
func promSanitize(s string) string {
	var b strings.Builder
	for i, r := range s {
		ok := r == '_' || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') || (r >= '0' && r <= '9' && i > 0)
		if ok {
			b.WriteRune(r)
		} else {
			b.WriteByte('_')
		}
	}
	return b.String()
}

type promWriter struct {
	w     io.Writer
	typed map[string]bool
	err   error
}

func (p *promWriter) header(name, help, typ string) {
	if p.typed[name] {
		return
	}
	p.typed[name] = true
	p.printf("# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

func (p *promWriter) printf(format string, args ...any) {
	if p.err != nil {
		return
	}
	_, p.err = fmt.Fprintf(p.w, format, args...)
}

func (p *promWriter) value(name string, labels [][2]string, v float64) {
	if len(labels) == 0 {
		p.printf("%s %s\n", name, promFloat(v))
		return
	}
	parts := make([]string, len(labels))
	for i, l := range labels {
		parts[i] = fmt.Sprintf("%s=%q", l[0], promEscape(l[1]))
	}
	p.printf("%s{%s} %s\n", name, strings.Join(parts, ","), promFloat(v))
}

// promFloat renders a sample value: integral values without an exponent so
// counters read naturally, everything else in shortest-round-trip form.
func promFloat(v float64) string {
	if v == float64(int64(v)) {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}

// WriteProm renders the run's state in Prometheus text format: the suite
// gauges, one gauge set per in-flight cell (cycle, commits, cycles/s), and
// every counter of each live cell's bridged metrics registry, labelled
// with the cell identity.
func (r *Run) WriteProm(w io.Writer) error {
	p := &promWriter{w: w, typed: make(map[string]bool)}

	r.mu.Lock()
	done, failed, faults := r.cellsDone, r.cellsFailed, r.faults
	inflight := len(r.cells)
	r.mu.Unlock()

	p.header("sta_suite_info", "Run identity (value is always 1).", "gauge")
	p.value("sta_suite_info", [][2]string{{"run", r.ID}}, 1)
	p.header("sta_suite_uptime_seconds", "Wall seconds since the run started.", "gauge")
	p.value("sta_suite_uptime_seconds", nil, time.Since(r.started).Seconds())
	p.header("sta_suite_cells_inflight", "Cells currently simulating.", "gauge")
	p.value("sta_suite_cells_inflight", nil, float64(inflight))
	p.header("sta_suite_cells_done_total", "Cells completed successfully.", "counter")
	p.value("sta_suite_cells_done_total", nil, float64(done))
	p.header("sta_suite_cells_failed_total", "Cells failed and quarantined.", "counter")
	p.value("sta_suite_cells_failed_total", nil, float64(failed))
	p.header("sta_suite_chaos_faults_total", "Injected chaos faults observed.", "counter")
	p.value("sta_suite_chaos_faults_total", nil, float64(faults))

	// Per-cell gauges, family by family: the text format wants each
	// metric's samples in one group.
	cells := r.liveCells()
	for _, g := range []struct {
		name, help string
		value      func(t *metrics.ProgressTap) float64
	}{
		{"sta_cell_cycle", "Current simulated cycle of an in-flight cell.",
			func(t *metrics.ProgressTap) float64 { cycle, _ := t.Latest(); return float64(cycle) }},
		{"sta_cell_commits", "Committed instructions of an in-flight cell.",
			func(t *metrics.ProgressTap) float64 { _, commits := t.Latest(); return float64(commits) }},
		{"sta_cell_cycles_per_second", "Per-cell simulation speed (cycles per wall second).",
			(*metrics.ProgressTap).Rate},
	} {
		for _, c := range cells {
			p.header(g.name, g.help, "gauge")
			p.value(g.name, cellLabel(c), g.value(c.Obs.Tap))
		}
	}
	// Bridged per-cycle metrics registries, one metric per scope/name key.
	// Keys are stable across cells, so collect first and emit grouped by
	// metric name (HELP/TYPE must precede all samples of a name).
	type bridged struct {
		name  string
		label [][2]string
		v     float64
	}
	var all []bridged
	for _, c := range cells {
		for _, kv := range c.Obs.Tap.Counters() {
			scope, name, _ := strings.Cut(kv.Key, "/")
			all = append(all, bridged{
				name:  "sta_sim_" + promSanitize(name),
				label: append(cellLabel(c), [2]string{"scope", scope}),
				v:     float64(kv.Value),
			})
		}
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].name < all[j].name })
	for _, b := range all {
		p.header(b.name, "Bridged simulator counter (see internal/metrics).", "gauge")
		p.value(b.name, b.label, b.v)
	}
	return p.err
}

// cellLabel identifies an in-flight cell's samples.
func cellLabel(c *Cell) [][2]string {
	return [][2]string{
		{"bench", c.Span.Bench},
		{"config", c.Span.Config},
		{"span", fmt.Sprintf("%d", c.Span.ID)},
	}
}
