package harness

import (
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/config"
	"repro/internal/sample"
	"repro/internal/sta"
	"repro/internal/stats"
)

// suiteRunner is the memoizing runner the full-suite tests share, so a
// cell one of them simulates is a lookup for the others.
var suiteRunner = sync.OnceValue(func() *Runner { return NewRunner(1) })

// TestAllExperimentsRun regenerates every table and figure once on the
// shared runner (memoization makes the union far cheaper than the sum),
// sanity-checks each output's structure, and holds the experiments named
// in scorecard to the paper's claims. This is the end-to-end test of the
// whole reproduction pipeline.
func TestAllExperimentsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment suite in -short mode")
	}
	r := suiteRunner()
	ran := map[string]bool{}
	for _, e := range All() {
		ran[e.ID] = true
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
			if check := scorecard[e.ID]; check != nil {
				check(t, tbl)
			}
		})
	}
	for id := range scorecard {
		if !ran[id] {
			t.Errorf("scorecard checks %s, which is not an experiment", id)
		}
	}
}

// scorecard holds the paper's claims (EXPERIMENTS.md "Summary scorecard")
// as predicates over the detailed tables, keyed by experiment ID.
var scorecard = map[string]func(t *testing.T, tbl *stats.Table){
	// Thread-level parallelism beats instruction-level parallelism.
	"fig8": func(t *testing.T, tbl *stats.Table) {
		if tlp, ilp := cell(t, tbl, "average", "16TUx1"), cell(t, tbl, "average", "1TUx16"); tlp <= ilp {
			t.Errorf("TLP average %.2fx does not beat ILP average %.2fx", tlp, ilp)
		}
	},
	// The WEC's average beats the victim cache decisively and is at least
	// next-line prefetching's; wp alone is negligible; mcf wins most.
	"fig11": func(t *testing.T, tbl *stats.Table) {
		wec := cell(t, tbl, "average", "wth-wp-wec")
		vc := cell(t, tbl, "average", "vc")
		nlp := cell(t, tbl, "average", "nlp")
		wp := cell(t, tbl, "average", "wp")
		if wec < 3 {
			t.Errorf("WEC average %+.1f%% too small — reproduction regressed", wec)
		}
		if wec <= vc {
			t.Errorf("WEC (%+.1f%%) must beat the victim cache (%+.1f%%)", wec, vc)
		}
		if wec < nlp {
			t.Errorf("WEC (%+.1f%%) must be at least next-line prefetching (%+.1f%%)", wec, nlp)
		}
		if wp > 1.5 || wp < -1.5 {
			t.Errorf("wp alone should be negligible, got %+.1f%%", wp)
		}
		mcf := cell(t, tbl, "mcf", "wth-wp-wec")
		for _, b := range Benches() {
			if g := cell(t, tbl, b.Short, "wth-wp-wec"); g > mcf {
				t.Errorf("%s (%+.1f%%) beats mcf (%+.1f%%): winner changed", b.Short, g, mcf)
			}
		}
	},
	// The WEC's gain persists with a 4-way L1.
	"fig12": func(t *testing.T, tbl *stats.Table) {
		if g := cell(t, tbl, "4way wth-wp-wec", "average"); g < 3 {
			t.Errorf("4-way WEC average %+.1f%%, want at least +3%%", g)
		}
	},
	// A 4 KB L1 with the WEC runs faster than orig with a 32 KB L1.
	"fig13": func(t *testing.T, tbl *stats.Table) {
		if wec, orig := rowMean(t, tbl, "wth-wp-wec 4k"), rowMean(t, tbl, "orig 32k"); wec >= orig {
			t.Errorf("wth-wp-wec 4k mean time %.3f not below orig 32k's %.3f", wec, orig)
		}
	},
	// The WEC's gain grows with its size, and its smallest beats the
	// largest victim cache.
	"fig15": func(t *testing.T, tbl *stats.Table) {
		w4 := cell(t, tbl, "wth-wp-wec 4", "average")
		w8 := cell(t, tbl, "wth-wp-wec 8", "average")
		w16 := cell(t, tbl, "wth-wp-wec 16", "average")
		if !(w4 < w8 && w8 < w16) {
			t.Errorf("WEC gain does not rise 4→8→16: %+.1f%% → %+.1f%% → %+.1f%%", w4, w8, w16)
		}
		if vc16 := cell(t, tbl, "vc 16", "average"); w4 <= vc16 {
			t.Errorf("WEC-4 (%+.1f%%) does not beat VC-16 (%+.1f%%)", w4, vc16)
		}
	},
	// An 8-entry WEC beats a 32-entry next-line prefetch buffer.
	"fig16": func(t *testing.T, tbl *stats.Table) {
		if w8, nlp32 := cell(t, tbl, "wth-wp-wec 8", "average"), cell(t, tbl, "nlp 32", "average"); w8 <= nlp32 {
			t.Errorf("WEC-8 (%+.1f%%) does not beat nlp-32 (%+.1f%%)", w8, nlp32)
		}
	},
	// The WEC trades extra L1 traffic (wrong loads) for fewer misses, on
	// mcf and on average.
	"fig17": func(t *testing.T, tbl *stats.Table) {
		for _, row := range []string{"mcf", "average"} {
			if tr := cell(t, tbl, row, "L1 traffic increase"); tr <= 0 {
				t.Errorf("%s L1 traffic should increase, got %+.1f%%", row, tr)
			}
			if miss := cell(t, tbl, row, "L1 miss reduction"); miss <= 0 {
				t.Errorf("%s L1 misses should fall, got %+.1f%% reduction", row, miss)
			}
		}
	},
}

// TestFig11PaperShape holds Figure 11 to the paper's headline claims on
// the shared runner: the WEC's average beats the victim cache and is at
// least next-line prefetching's, wp alone is negligible, mcf wins most.
func TestFig11PaperShape(t *testing.T) { checkScorecard(t, "fig11") }

// TestFig17Shape holds Figure 17 to the paper's claims on the shared
// runner: the WEC raises L1 traffic but cuts misses, on mcf and on average.
func TestFig17Shape(t *testing.T) { checkScorecard(t, "fig17") }

// checkScorecard runs experiment id on the shared runner and applies its
// scorecard predicate. After TestAllExperimentsRun every cell is memoized.
func checkScorecard(t *testing.T, id string) {
	if testing.Short() {
		t.Skip("full experiment in -short mode")
	}
	e, err := ByID(id)
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := e.Run(suiteRunner())
	if err != nil {
		t.Fatal(err)
	}
	scorecard[id](t, tbl)
}

// cell parses the table cell in the row labelled row and the column headed
// col: "+6.8%", "3.40x" and "0.939" all read as numbers.
func cell(t *testing.T, tbl *stats.Table, row, col string) float64 {
	t.Helper()
	c := slices.Index(tbl.Header, col)
	for _, r := range tbl.Rows {
		if c < 0 || r[0] != row {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimRight(r[c], "%x"), 64)
		if err != nil {
			t.Fatalf("cell (%s, %s): cannot parse %q", row, col, r[c])
		}
		return v
	}
	t.Fatalf("no cell (%s, %s) in\n%s", row, col, tbl.String())
	return 0
}

// rowMean is the plain mean of a row's per-benchmark cells.
func rowMean(t *testing.T, tbl *stats.Table, row string) float64 {
	t.Helper()
	var sum float64
	for _, b := range Benches() {
		sum += cell(t, tbl, row, b.Short)
	}
	return sum / float64(len(Benches()))
}

// TestCompareQueuesEachCellOnce checks compare's job list on Figure 15's
// pairs, where orig is the baseline shared by all nine: every distinct
// cell is queued exactly once, benchmark-major, and every cell the table
// reads is among them.
func TestCompareQueuesEachCellOnce(t *testing.T) {
	r := NewRunner(1)
	cs := new(cfgset)
	cmps := sideSizePairs(cs, []config.Name{config.VC, config.WTHWPVC, config.WTHWPWEC}, []int{4, 8, 16})
	if err := cs.Err(); err != nil {
		t.Fatal(err)
	}
	benchIdx := map[string]int{}
	for i, b := range Benches() {
		benchIdx[b.Short] = i
	}
	jobs := r.cells(cmps)
	queued := map[string]int{}
	for i, j := range jobs {
		if i > 0 && benchIdx[j.bench] < benchIdx[jobs[i-1].bench] {
			t.Errorf("job %d (%s) follows a %s job: not benchmark-major", i, j.bench, jobs[i-1].bench)
		}
		queued[r.key(j.bench, j.cfg)]++
	}
	for k, n := range queued {
		if n != 1 {
			t.Errorf("cell %s queued %d times", k, n)
		}
	}
	for _, b := range Benches() {
		for _, c := range cmps {
			for _, cfg := range []sta.Config{c.base, c.cfg} {
				if queued[r.key(b.Short, cfg)] == 0 {
					t.Errorf("%s: %s reads a cell that is never queued", b.Short, c.label)
				}
			}
		}
	}
	// One orig baseline plus nine compared machines per benchmark.
	if want := 10 * len(Benches()); len(jobs) != want {
		t.Errorf("%d jobs queued, want %d", len(jobs), want)
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
