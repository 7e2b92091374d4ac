package harness

import (
	"strconv"
	"strings"
	"testing"

	"repro/internal/config"
	"repro/internal/sample"
	"repro/internal/stats"
)

// TestAllExperimentsRun regenerates every table and figure once on a
// shared runner (memoization makes the union far cheaper than the sum) and
// sanity-checks each output's structure. This is the end-to-end test of
// the whole reproduction pipeline.
func TestAllExperimentsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment suite in -short mode")
	}
	r := NewRunner(1)
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			tbl, err := e.Run(r)
			if err != nil {
				t.Fatal(err)
			}
			if len(tbl.Header) < 2 {
				t.Fatalf("%s: header too small: %v", e.ID, tbl.Header)
			}
			if len(tbl.Rows) == 0 {
				t.Fatalf("%s: no rows", e.ID)
			}
			for i, row := range tbl.Rows {
				if len(row) != len(tbl.Header) {
					t.Errorf("%s row %d: %d cells, header has %d",
						e.ID, i, len(row), len(tbl.Header))
				}
			}
			// CSV renders without panicking and includes the header.
			if !strings.HasPrefix(tbl.CSV(), tbl.Header[0]) {
				t.Errorf("%s: CSV missing header", e.ID)
			}
		})
	}
}

// pctCell parses a "+12.3%" cell.
func pctCell(t *testing.T, cell string) float64 {
	t.Helper()
	s := strings.TrimSuffix(strings.TrimPrefix(cell, "+"), "%")
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("cannot parse percentage %q", cell)
	}
	return v
}

// TestFig11PaperShape asserts the headline qualitative claims of the
// paper's Figure 11 on the regenerated data: the WEC configuration's
// average beats the victim cache decisively and is the best or tied-best
// overall; wp alone is negligible.
func TestFig11PaperShape(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment in -short mode")
	}
	r := NewRunner(1)
	tbl, err := fig11(r)
	if err != nil {
		t.Fatal(err)
	}
	// Last row is the weighted average; columns follow config.Names()[1:].
	avg := tbl.Rows[len(tbl.Rows)-1]
	if avg[0] != "average" {
		t.Fatalf("last row is %q, want average", avg[0])
	}
	idx := map[string]int{}
	for i, h := range tbl.Header {
		idx[h] = i
	}
	vc := pctCell(t, avg[idx["vc"]])
	wp := pctCell(t, avg[idx["wp"]])
	wec := pctCell(t, avg[idx["wth-wp-wec"]])
	nlp := pctCell(t, avg[idx["nlp"]])
	if wec < 3 {
		t.Errorf("WEC average %+.1f%% too small — reproduction regressed", wec)
	}
	if wec <= vc {
		t.Errorf("WEC (%.1f%%) must beat the victim cache (%.1f%%)", wec, vc)
	}
	if wec < nlp {
		t.Errorf("WEC (%.1f%%) must be at least next-line prefetching (%.1f%%)", wec, nlp)
	}
	if wp > 1.5 || wp < -1.5 {
		t.Errorf("wp alone should be negligible, got %+.1f%%", wp)
	}
	// mcf must be the biggest winner (paper: 18.5%).
	var mcfGain float64
	for _, row := range tbl.Rows {
		if row[0] == "mcf" {
			mcfGain = pctCell(t, row[idx["wth-wp-wec"]])
		}
	}
	for _, row := range tbl.Rows[:len(tbl.Rows)-1] {
		if g := pctCell(t, row[idx["wth-wp-wec"]]); g > mcfGain {
			t.Errorf("%s (%+.1f%%) beats mcf (%+.1f%%): winner changed", row[0], g, mcfGain)
		}
	}
}

// TestFig11SampledUsesEstimate pins the sampled figures to whole-run cycle
// estimates: at the survey regime, the mcf wth-wp-wec Figure 11 cell must
// be the relative speedup of the two cells' EstCycles, not of the cycles
// their detailed windows happened to cover.
func TestFig11SampledUsesEstimate(t *testing.T) {
	if testing.Short() {
		t.Skip("sampled experiment in -short mode")
	}
	r := NewRunner(1)
	r.Sample = sample.Config{WarmupInsts: 500, MeasureInsts: 1000, PeriodInsts: 30000, Seed: 1}
	tbl, err := fig11(r)
	if err != nil {
		t.Fatal(err)
	}
	cs := new(cfgset)
	or, err := r.Result("mcf", cs.at8(config.Orig, nil))
	if err != nil {
		t.Fatal(err)
	}
	we, err := r.Result("mcf", cs.at8(config.WTHWPWEC, nil))
	if err != nil {
		t.Fatal(err)
	}
	if or.Stats.Sampled == nil || we.Stats.Sampled == nil {
		t.Fatal("survey-regime cells carry no sampled estimate")
	}
	col := -1
	for i, h := range tbl.Header {
		if h == string(config.WTHWPWEC) {
			col = i
		}
	}
	want := stats.Pct((or.Stats.EstCycles()/we.Stats.EstCycles() - 1) * 100)
	for _, row := range tbl.Rows {
		if row[0] == "mcf" {
			if row[col] != want {
				t.Errorf("mcf wth-wp-wec cell %s, want %s from the cycle estimates (detailed-window cycles %d vs %d)",
					row[col], want, or.Stats.Cycles, we.Stats.Cycles)
			}
			return
		}
	}
	t.Fatal("fig11 has no mcf row")
}
