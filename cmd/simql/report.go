package main

import (
	"flag"
	"fmt"
	"html"
	"io"
	"os"
	"sort"
	"strings"

	"repro/internal/runstore"
)

// chartSeries is one series of a dashboard chart; Values align with the
// chart's Cats, nil marking a missing cell.
type chartSeries struct {
	Name   string     `json:"name"`
	Values []*float64 `json:"values"`
}

// chart is one dashboard panel's data, rendered client-side from the
// embedded JSON. Kind selects the renderer: "bars" (grouped) or "stack"
// (stacked bars).
type chart struct {
	ID       string        `json:"id"`
	Kind     string        `json:"kind"`
	Title    string        `json:"title"`
	Subtitle string        `json:"subtitle,omitempty"`
	YLabel   string        `json:"ylabel"`
	Cats     []string      `json:"cats"`
	Series   []chartSeries `json:"series"`
	// RefLine draws a horizontal reference (e.g. speedup = 1). Zero = none.
	RefLine float64 `json:"refline,omitempty"`
}

// reportData is the JSON blob embedded in the dashboard.
type reportData struct {
	Title  string  `json:"title"`
	Charts []chart `json:"charts"`
}

// cmdReport renders the archive as one self-contained HTML file: no
// external scripts, styles, fonts, or images — it can be mailed, attached
// to CI, or opened from file://.
func cmdReport(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("report", flag.ContinueOnError)
	root := fs.String("root", "runs", "archive root directory")
	out := fs.String("o", "report.html", "output HTML file")
	base := fs.String("base", "config=orig", "baseline selector speedups are measured against")
	title := fs.String("title", "Cross-run analytics", "dashboard title")
	if code, ok := parse(fs, args, stderr); !ok {
		return code
	}

	ms, err := openAll(*root)
	if err != nil {
		return fail(stderr, err)
	}
	baseline, berr := selectFrom(ms, *base)
	data := reportData{Title: *title}
	var tables []string

	if berr != nil {
		fmt.Fprintf(stderr, "simql report: no baseline (%v); speedup and pareto panels omitted\n", berr)
	} else {
		if c, ok := speedupChart(ms, baseline, *base, stderr); ok {
			data.Charts = append(data.Charts, c)
			tables = append(tables, chartTable(c, "%.3f"))
		}
	}
	if c, ok := attribChart(ms, stderr); ok {
		data.Charts = append(data.Charts, c)
		tables = append(tables, chartTable(c, "%.0f"))
	}
	var paretoHTML string
	if berr == nil {
		if pts, err := runstore.Pareto(ms, baseline); err == nil && len(pts) > 0 {
			paretoHTML = paretoTable(pts, *base)
		}
	}
	if len(data.Charts) == 0 && paretoHTML == "" {
		return fail(stderr, fmt.Errorf("simql report: nothing to render (no baseline pairs, no attribution)"))
	}

	doc, err := renderHTML(&data, tables, paretoHTML, manifestTable(ms), *root, len(ms))
	if err != nil {
		return fail(stderr, err)
	}
	if err := os.WriteFile(*out, []byte(doc), 0o644); err != nil {
		return fail(stderr, err)
	}
	fmt.Fprintf(stdout, "wrote %s (%d panel(s), %d manifests)\n", *out, len(data.Charts), len(ms))
	return 0
}

// groupLabel names a configuration group compactly for legends.
func groupLabel(m *runstore.Manifest) string {
	l := fmt.Sprintf("%s/%dtu", m.Config, m.TUs)
	if m.SideKind != "none" && m.SideEntries > 0 {
		l += fmt.Sprintf("/%s%d", m.SideKind, m.SideEntries)
	}
	return l
}

// maxSeries caps a panel's series count at the categorical palette size;
// overflow is reported, never silently dropped.
const maxSeries = 8

// speedupChart builds the grouped-bar speedup panel: per benchmark, each
// non-baseline configuration's speedup over the baseline cell.
func speedupChart(ms, baseline []*runstore.Manifest, baseExpr string, stderr io.Writer) (chart, bool) {
	baseIdx := make(map[string]*runstore.Manifest)
	baseHash := make(map[string]bool)
	for _, m := range baseline {
		baseIdx[fmt.Sprintf("%s-s%d", m.Bench, m.Scale)] = m
		baseHash[m.CfgHash] = true
	}
	type group struct {
		label string
		cells map[string]*runstore.Manifest
	}
	groups := make(map[string]*group)
	var order []string
	benchSet := make(map[string]bool)
	for _, m := range ms {
		if baseHash[m.CfgHash] {
			continue
		}
		if _, ok := baseIdx[fmt.Sprintf("%s-s%d", m.Bench, m.Scale)]; !ok {
			continue
		}
		g, ok := groups[m.CfgHash]
		if !ok {
			g = &group{label: groupLabel(m), cells: make(map[string]*runstore.Manifest)}
			groups[m.CfgHash] = g
			order = append(order, m.CfgHash)
		}
		g.cells[fmt.Sprintf("%s-s%d", m.Bench, m.Scale)] = m
		benchSet[m.Bench] = true
	}
	if len(groups) == 0 {
		return chart{}, false
	}
	sort.Slice(order, func(i, j int) bool { return groups[order[i]].label < groups[order[j]].label })
	if len(order) > maxSeries {
		var dropped []string
		for _, h := range order[maxSeries:] {
			dropped = append(dropped, groups[h].label)
		}
		fmt.Fprintf(stderr, "simql report: %d configuration groups exceed the %d-series panel; dropping %s\n",
			len(order), maxSeries, strings.Join(dropped, ", "))
		order = order[:maxSeries]
	}
	var benches []string
	for b := range benchSet {
		benches = append(benches, b)
	}
	sort.Strings(benches)
	c := chart{
		ID:       "speedup",
		Kind:     "bars",
		Title:    "Speedup by benchmark",
		Subtitle: fmt.Sprintf("execution-time speedup over baseline %q; 1.0 = no change", baseExpr),
		YLabel:   "speedup",
		Cats:     benches,
		RefLine:  1,
	}
	for _, ch := range order {
		g := groups[ch]
		s := chartSeries{Name: g.label}
		for _, b := range benches {
			var v *float64
			// Pair at any scale present for both sides; prefer scale 1.
			for _, m := range g.cells {
				if m.Bench != b {
					continue
				}
				base := baseIdx[fmt.Sprintf("%s-s%d", m.Bench, m.Scale)]
				if base != nil && m.Stats.Cycles > 0 {
					sp := float64(base.Stats.Cycles) / float64(m.Stats.Cycles)
					v = &sp
					break
				}
			}
			s.Values = append(s.Values, v)
		}
		c.Series = append(c.Series, s)
	}
	return c, true
}

// attribChart builds the stacked fill-classification panel from every
// archived cell that carried the attribution collector.
func attribChart(ms []*runstore.Manifest, stderr io.Writer) (chart, bool) {
	var cells []*runstore.Manifest
	for _, m := range ms {
		if m.Attrib != nil {
			cells = append(cells, m)
		}
	}
	if len(cells) == 0 {
		return chart{}, false
	}
	sort.Slice(cells, func(i, j int) bool {
		if cells[i].Bench != cells[j].Bench {
			return cells[i].Bench < cells[j].Bench
		}
		return groupLabel(cells[i]) < groupLabel(cells[j])
	})
	const maxCells = 24
	if len(cells) > maxCells {
		fmt.Fprintf(stderr, "simql report: attribution panel capped at %d of %d cells\n", maxCells, len(cells))
		cells = cells[:maxCells]
	}
	c := chart{
		ID:       "fillclass",
		Kind:     "stack",
		Title:    "Speculative fill classification",
		Subtitle: "wrong-execution fills by outcome (attribution collector)",
		YLabel:   "fills",
	}
	classes := []struct {
		name string
		get  func(*runstore.AttribSummary) uint64
	}{
		{"useful", func(a *runstore.AttribSummary) uint64 { return a.Useful }},
		{"late", func(a *runstore.AttribSummary) uint64 { return a.Late }},
		{"useless", func(a *runstore.AttribSummary) uint64 { return a.Useless }},
		{"polluting", func(a *runstore.AttribSummary) uint64 { return a.Polluting }},
	}
	for _, m := range cells {
		label := m.Bench
		if len(cells) > 1 && groupLabel(m) != groupLabel(cells[0]) {
			label = m.Bench + " " + groupLabel(m)
		}
		c.Cats = append(c.Cats, label)
	}
	for _, cl := range classes {
		s := chartSeries{Name: cl.name}
		for _, m := range cells {
			v := float64(cl.get(m.Attrib))
			s.Values = append(s.Values, &v)
		}
		c.Series = append(c.Series, s)
	}
	return c, true
}

// chartTable renders a chart's data as an HTML table (the accessible
// non-graphic view shipped with every panel).
func chartTable(c chart, valFmt string) string {
	var b strings.Builder
	b.WriteString(`<details class="tbl"><summary>Data table</summary><table><thead><tr><th></th>`)
	for _, s := range c.Series {
		fmt.Fprintf(&b, "<th>%s</th>", html.EscapeString(s.Name))
	}
	b.WriteString("</tr></thead><tbody>")
	for i, cat := range c.Cats {
		fmt.Fprintf(&b, "<tr><th>%s</th>", html.EscapeString(cat))
		for _, s := range c.Series {
			if i < len(s.Values) && s.Values[i] != nil {
				fmt.Fprintf(&b, "<td>"+valFmt+"</td>", *s.Values[i])
			} else {
				b.WriteString("<td>–</td>")
			}
		}
		b.WriteString("</tr>")
	}
	b.WriteString("</tbody></table></details>")
	return b.String()
}

// paretoTable renders the speedup-vs-cost frontier section.
func paretoTable(pts []runstore.ParetoPoint, baseExpr string) string {
	var b strings.Builder
	b.WriteString(`<section class="panel"><h2>Speedup vs hardware cost</h2>`)
	fmt.Fprintf(&b, `<p class="sub">weighted-average speedup over %s against KB of speculation-visible SRAM; ★ marks the Pareto frontier</p>`,
		html.EscapeString(baseExpr))
	b.WriteString(`<table class="flat"><thead><tr><th>config</th><th>TUs</th><th>side</th><th>cost (KB)</th><th>speedup</th><th>benches</th><th></th></tr></thead><tbody>`)
	for _, p := range pts {
		mark := ""
		if p.Frontier {
			mark = "★"
		}
		side := p.SideKind
		if side != "none" {
			side = fmt.Sprintf("%s×%d", p.SideKind, p.SideEnts)
		}
		fmt.Fprintf(&b, "<tr><td>%s</td><td>%d</td><td>%s</td><td>%.1f</td><td>%.3f</td><td>%d</td><td>%s</td></tr>",
			html.EscapeString(p.Config), p.TUs, html.EscapeString(side), p.CostKB, p.Speedup, p.Benches, mark)
	}
	b.WriteString("</tbody></table></section>")
	return b.String()
}

// manifestTable renders the full archive listing.
func manifestTable(ms []*runstore.Manifest) string {
	var b strings.Builder
	b.WriteString(`<details class="tbl manifests"><summary>All archived manifests</summary><table><thead><tr>` +
		`<th>cfg hash</th><th>config</th><th>TUs</th><th>side</th><th>bench</th><th>scale</th>` +
		`<th>cycles</th><th>IPC</th><th>L1D miss</th><th>tool</th><th>git</th><th>run</th></tr></thead><tbody>`)
	for _, m := range ms {
		side := m.SideKind
		if side != "none" {
			side = fmt.Sprintf("%s×%d", m.SideKind, m.SideEntries)
		}
		fmt.Fprintf(&b, "<tr><td>%s</td><td>%s</td><td>%d</td><td>%s</td><td>%s</td><td>%d</td><td>%d</td><td>%.3f</td><td>%.4f</td><td>%s</td><td>%s</td><td>%s</td></tr>",
			html.EscapeString(m.CfgHash[:10]), html.EscapeString(m.Config), m.TUs, html.EscapeString(side),
			html.EscapeString(m.Bench), m.Scale, m.Stats.Cycles, m.IPC(), m.Stats.L1DMissRate(),
			html.EscapeString(m.Tool), html.EscapeString(m.GitRev), html.EscapeString(m.RunID))
	}
	b.WriteString("</tbody></table></details>")
	return b.String()
}
