package harness

import (
	"fmt"

	"repro/internal/bpred"
	"repro/internal/config"
	"repro/internal/simerr"
	"repro/internal/sta"
	"repro/internal/stats"
)

// speedup is base's whole-run cycle count over res's. It goes through
// EstCycles, so a sampled cell contributes its whole-run estimate rather
// than the cycles its detailed windows covered; for detailed cells the
// arithmetic is exactly stats.Speedup's.
func speedup(base, res *sta.Result) float64 {
	c := res.Stats.EstCycles()
	if c == 0 {
		return 0
	}
	return base.Stats.EstCycles() / c
}

// pct renders a speedup as the paper's percentage improvement (e.g. +9.7%).
func pct(sp float64) string { return stats.Pct((sp - 1) * 100) }

// cmp is one compared pair, one line of a figure: cfg measured against
// base on every benchmark.
type cmp struct {
	label     string
	base, cfg sta.Config
}

// cells lists every (bench, cfg) cell that cmps read, each distinct cell
// once, benchmark-major: all of the first benchmark's cells, then the
// next benchmark's.
func (r *Runner) cells(cmps []cmp) []job {
	var jobs []job
	for _, b := range Benches() {
		seen := make(map[string]bool)
		for _, c := range cmps {
			for _, cfg := range []sta.Config{c.base, c.cfg} {
				if k := r.key(b.Short, cfg); !seen[k] {
					seen[k] = true
					jobs = append(jobs, job{b.Short, cfg})
				}
			}
		}
	}
	return jobs
}

// compare runs every pair on every benchmark in one batch and returns
// v[i][j] = metric(base, res) for pair i on benchmark j. A configuration
// that failed to build is reported before anything simulates.
func (r *Runner) compare(cs *cfgset, cmps []cmp, metric func(base, res *sta.Result) float64) ([][]float64, error) {
	if err := cs.Err(); err != nil {
		return nil, err
	}
	if err := r.batch(r.cells(cmps)); err != nil {
		return nil, err
	}
	v := make([][]float64, len(cmps))
	for i, c := range cmps {
		for _, b := range Benches() {
			base, err := r.Result(b.Short, c.base)
			if err != nil {
				return nil, err
			}
			res, err := r.Result(b.Short, c.cfg)
			if err != nil {
				return nil, err
			}
			v[i] = append(v[i], metric(base, res))
		}
	}
	return v, nil
}

// byBench lays a comparison out with a row per benchmark and a column per
// pair, each value rendered by cell; avg adds a row of every column's
// weighted-average speedup.
func (r *Runner) byBench(cs *cfgset, cmps []cmp, metric func(base, res *sta.Result) float64,
	cell func(float64) string, avg bool) (*stats.Table, error) {
	v, err := r.compare(cs, cmps, metric)
	if err != nil {
		return nil, err
	}
	t := &stats.Table{Header: []string{"Benchmark"}}
	for _, c := range cmps {
		t.Header = append(t.Header, c.label)
	}
	for j, b := range Benches() {
		row := []string{b.Short}
		for i := range cmps {
			row = append(row, cell(v[i][j]))
		}
		t.AddRow(row...)
	}
	if avg {
		row := []string{"average"}
		for i := range cmps {
			row = append(row, cell(stats.WeightedAverageSpeedup(v[i])))
		}
		t.AddRow(row...)
	}
	return t, nil
}

// byConfig lays a comparison out with a row per pair, under the corner
// heading, and a column per benchmark, each value rendered by cell; avg
// adds a column of every row's weighted-average speedup.
func (r *Runner) byConfig(cs *cfgset, corner string, cmps []cmp, metric func(base, res *sta.Result) float64,
	cell func(float64) string, avg bool) (*stats.Table, error) {
	v, err := r.compare(cs, cmps, metric)
	if err != nil {
		return nil, err
	}
	t := &stats.Table{Header: []string{corner}}
	for _, b := range Benches() {
		t.Header = append(t.Header, b.Short)
	}
	if avg {
		t.Header = append(t.Header, "average")
	}
	for i, c := range cmps {
		row := []string{c.label}
		for _, x := range v[i] {
			row = append(row, cell(x))
		}
		if avg {
			row = append(row, cell(stats.WeightedAverageSpeedup(v[i])))
		}
		t.AddRow(row...)
	}
	return t, nil
}

// cfgset builds the machine configurations one experiment sweeps over,
// accumulating the first construction error instead of panicking; compare
// checks Err once, before any simulation runs.
type cfgset struct{ err error }

func (cs *cfgset) note(err error) {
	if cs.err == nil && err != nil {
		cs.err = err
	}
}

// Err returns the first configuration-construction error, classified into
// the taxonomy.
func (cs *cfgset) Err() error {
	if cs.err == nil {
		return nil
	}
	return simerr.Classify("harness.config", cs.err, simerr.BadProgram)
}

// main builds the main machine with tus thread units in the named
// configuration.
func (cs *cfgset) main(name config.Name, tus int) sta.Config {
	cfg := config.Main(tus)
	cs.note(config.Apply(name, &cfg))
	return cfg
}

// at8 builds an 8-TU machine in the named configuration, applying mut to
// the base machine first.
func (cs *cfgset) at8(name config.Name, mut func(*sta.Config)) sta.Config {
	cfg := config.Main(8)
	if mut != nil {
		mut(&cfg)
	}
	cs.note(config.Apply(name, &cfg))
	return cfg
}

// vsOrig pairs the named 8-TU machine against orig, mut applied to both.
func (cs *cfgset) vsOrig(label string, name config.Name, mut func(*sta.Config)) cmp {
	return cmp{label, cs.at8(config.Orig, mut), cs.at8(name, mut)}
}

// wecPairs pairs wth-wp-wec against orig at 8 TUs once per parameter
// value, set applying the value to both machines.
func wecPairs[T any](cs *cfgset, vals []T, label func(T) string, set func(*sta.Config, T)) []cmp {
	var cmps []cmp
	for _, v := range vals {
		cmps = append(cmps, cs.vsOrig(label(v), config.WTHWPWEC, func(c *sta.Config) { set(c, v) }))
	}
	return cmps
}

// table2 reports per-benchmark dynamic instruction counts and the fraction
// executed inside parallel regions, from the functional reference.
func table2(r *Runner) (*stats.Table, error) {
	t := &stats.Table{Header: []string{
		"Benchmark", "Suite", "Whole (K inst)", "Targeted loops (K inst)", "Fraction parallelized",
	}}
	for _, b := range Benches() {
		ref, err := r.Reference(b.Short)
		if err != nil {
			return nil, err
		}
		frac := float64(ref.ParInsts) / float64(ref.Insts)
		t.AddRow(b.Name, b.Suite,
			fmt.Sprintf("%.1f", float64(ref.Insts)/1e3),
			fmt.Sprintf("%.1f", float64(ref.ParInsts)/1e3),
			fmt.Sprintf("%.1f%%", frac*100))
	}
	return t, nil
}

// table3 prints the constant-total-capacity scaling rows.
func table3(r *Runner) (*stats.Table, error) {
	t := &stats.Table{Header: []string{
		"# of TUs", "Issue rate", "ROB", "INT ALU", "INT MULT", "FP ALU", "FP MULT", "L1 data (KB)",
	}}
	for _, row := range config.Table3Rows()[1:] {
		t.AddRow(
			fmt.Sprint(row.TUs), fmt.Sprint(row.Issue), fmt.Sprint(row.ROB),
			fmt.Sprint(row.IntALU), fmt.Sprint(row.IntMul),
			fmt.Sprint(row.FPALU), fmt.Sprint(row.FPMul), fmt.Sprint(row.L1DKBytes))
	}
	return t, nil
}

// fig8 compares thread-level against instruction-level parallelism in the
// parallelized portions: Table 3 machine shapes against a single-thread
// single-issue baseline, measured over parallel-region cycles only.
func fig8(r *Runner) (*stats.Table, error) {
	rows := config.Table3Rows()
	var cmps []cmp
	for _, row := range rows[1:] {
		cmps = append(cmps, cmp{row.Label(), rows[0].Machine(), row.Machine()})
	}
	return r.byBench(new(cfgset), cmps,
		func(base, res *sta.Result) float64 { return stats.Speedup(base.Stats.ParCycles, res.Stats.ParCycles) },
		func(sp float64) string { return fmt.Sprintf("%.2fx", sp) }, true)
}

var tuSweep = []int{1, 2, 4, 8, 16}

// fig9 reports whole-program speedups of orig and wth-wp-wec machines with
// 1-16 TUs against the single-TU orig machine.
func fig9(r *Runner) (*stats.Table, error) {
	cs := new(cfgset)
	base := cs.main(config.Orig, 1)
	var cmps []cmp
	for _, n := range tuSweep[1:] {
		cmps = append(cmps, cmp{fmt.Sprintf("orig %dTU", n), base, cs.main(config.Orig, n)})
	}
	for _, n := range tuSweep {
		cmps = append(cmps, cmp{fmt.Sprintf("wec %dTU", n), base, cs.main(config.WTHWPWEC, n)})
	}
	return r.byBench(cs, cmps, speedup, pct, false)
}

// fig10 reports the wth-wp-wec speedup over the orig machine with the same
// thread-unit count.
func fig10(r *Runner) (*stats.Table, error) {
	cs := new(cfgset)
	var cmps []cmp
	for _, n := range tuSweep {
		cmps = append(cmps, cmp{fmt.Sprintf("%dTU", n), cs.main(config.Orig, n), cs.main(config.WTHWPWEC, n)})
	}
	return r.byBench(cs, cmps, speedup, pct, true)
}

// fig11 compares all configurations at 8 TUs against orig.
func fig11(r *Runner) (*stats.Table, error) {
	cs := new(cfgset)
	var cmps []cmp
	for _, n := range config.Names()[1:] {
		cmps = append(cmps, cs.vsOrig(string(n), n, nil))
	}
	return r.byBench(cs, cmps, speedup, pct, true)
}

// fig12 sweeps L1 associativity (direct-mapped vs 4-way) for the victim
// cache and WEC configurations; each row's baseline is orig at the same
// associativity.
func fig12(r *Runner) (*stats.Table, error) {
	cs := new(cfgset)
	var cmps []cmp
	for _, a := range []int{1, 4} {
		for _, n := range []config.Name{config.VC, config.WTHWPVC, config.WTHWPWEC} {
			cmps = append(cmps, cs.vsOrig(fmt.Sprintf("%dway %s", a, n), n,
				func(c *sta.Config) { c.Mem.L1DAssoc = a }))
		}
	}
	return r.byConfig(cs, "Config", cmps, speedup, pct, true)
}

// normalizedTime builds Figures 13 and 14: the execution time of orig and
// wth-wp-wec at each cache size (KB, set in bytes by set), normalized to
// orig at the smallest size.
func normalizedTime(r *Runner, sizes []int, set func(c *sta.Config, bytes int)) (*stats.Table, error) {
	cs := new(cfgset)
	mk := func(name config.Name, kb int) sta.Config {
		return cs.at8(name, func(c *sta.Config) { set(c, kb*1024) })
	}
	var cmps []cmp
	for _, name := range []config.Name{config.Orig, config.WTHWPWEC} {
		for _, kb := range sizes {
			cmps = append(cmps, cmp{fmt.Sprintf("%s %dk", name, kb), mk(config.Orig, sizes[0]), mk(name, kb)})
		}
	}
	return r.byConfig(cs, "Config", cmps,
		func(base, res *sta.Result) float64 { return res.Stats.EstCycles() / base.Stats.EstCycles() },
		func(v float64) string { return fmt.Sprintf("%.3f", v) }, false)
}

// fig13 sweeps the L1 data cache size.
func fig13(r *Runner) (*stats.Table, error) {
	return normalizedTime(r, []int{4, 8, 16, 32}, func(c *sta.Config, n int) { c.Mem.L1DSize = n })
}

// fig14 sweeps the shared L2 size (the paper's 128/256/512 KB progression,
// scaled 1:2:4 to this repo's workload footprints as 32/64/128 KB).
func fig14(r *Runner) (*stats.Table, error) {
	return normalizedTime(r, []int{32, 64, 128}, func(c *sta.Config, n int) { c.Mem.L2Size = n })
}

// sideSizePairs pairs each (configuration, side-buffer entries) machine
// against orig, for the Figure 15/16 comparisons.
func sideSizePairs(cs *cfgset, names []config.Name, sizes []int) []cmp {
	var cmps []cmp
	for _, n := range names {
		for _, e := range sizes {
			cmps = append(cmps, cmp{fmt.Sprintf("%s %d", n, e), cs.at8(config.Orig, nil),
				cs.at8(n, func(c *sta.Config) { c.Mem.SideEntries = e })})
		}
	}
	return cmps
}

// sweepSideSizes lays out the relative speedup over orig of each
// (configuration, side-buffer entries) pair.
func sweepSideSizes(r *Runner, names []config.Name, sizes []int) (*stats.Table, error) {
	cs := new(cfgset)
	return r.byConfig(cs, "Config", sideSizePairs(cs, names, sizes), speedup, pct, true)
}

// fig15 compares WEC sizes against victim cache sizes (4/8/16 entries).
func fig15(r *Runner) (*stats.Table, error) {
	return sweepSideSizes(r,
		[]config.Name{config.VC, config.WTHWPVC, config.WTHWPWEC},
		[]int{4, 8, 16})
}

// fig16 compares the WEC against next-line prefetch buffers (8/16/32).
func fig16(r *Runner) (*stats.Table, error) {
	return sweepSideSizes(r,
		[]config.Name{config.NLP, config.WTHWPWEC},
		[]int{8, 16, 32})
}

// fig17 reports the wth-wp-wec L1 data-traffic increase and miss-count
// reduction relative to orig; the average row is their plain mean.
func fig17(r *Runner) (*stats.Table, error) {
	cs := new(cfgset)
	cmps := []cmp{cs.vsOrig(string(config.WTHWPWEC), config.WTHWPWEC, nil)}
	traffic, err := r.compare(cs, cmps, func(or, we *sta.Result) float64 {
		return 100 * (float64(we.Stats.L1DTraffic) - float64(or.Stats.L1DTraffic)) /
			float64(or.Stats.L1DTraffic)
	})
	if err != nil {
		return nil, err
	}
	miss, err := r.compare(cs, cmps, func(or, we *sta.Result) float64 {
		return 100 * (float64(or.Stats.L1DMisses) - float64(we.Stats.L1DMisses)) /
			float64(or.Stats.L1DMisses)
	})
	if err != nil {
		return nil, err
	}
	t := &stats.Table{Header: []string{
		"Benchmark", "L1 traffic increase", "L1 miss reduction",
	}}
	var trafficSum, missSum float64
	for j, b := range Benches() {
		trafficSum += traffic[0][j]
		missSum += miss[0][j]
		t.AddRow(b.Short, stats.Pct(traffic[0][j]), stats.Pct(miss[0][j]))
	}
	n := float64(len(Benches()))
	t.AddRow("average", stats.Pct(trafficSum/n), stats.Pct(missSum/n))
	return t, nil
}

// ablation isolates the WEC's three roles (DESIGN.md decision 3): wrong
// fill isolation, victim caching, and next-line prefetching on wrong hits.
// Each row disables one role of the full wth-wp-wec configuration.
func ablation(r *Runner) (*stats.Table, error) {
	cs := new(cfgset)
	orig := cs.at8(config.Orig, nil)
	wec := func(mut func(*sta.Config)) sta.Config { return cs.at8(config.WTHWPWEC, mut) }
	cmps := []cmp{
		{"wth-wp-wec (full)", orig, wec(nil)},
		{"  -victim role", orig, wec(func(c *sta.Config) { c.Mem.WECNoVictim = true })},
		{"  -next-line role", orig, wec(func(c *sta.Config) { c.Mem.WECNoNextLine = true })},
		{"  -both", orig, wec(func(c *sta.Config) {
			c.Mem.WECNoVictim = true
			c.Mem.WECNoNextLine = true
		})},
	}
	return r.byConfig(cs, "Config", cmps, speedup, pct, true)
}

// gainDecomp decomposes where each speculative configuration's gain comes
// from, using the attribution layer: relative speedup over orig at 8 TUs
// beside the classification of every speculative fill (useful, late,
// useless, polluting) and the side buffer's victim-cache hits, summed over
// the benchmark suite. wth-wp fills wrong blocks straight into the L1 (no
// side buffer), nlp prefetches without wrong execution, vc is a victim
// cache alone, and wth-wp-wec combines all three roles.
func gainDecomp(r *Runner) (*stats.Table, error) {
	cs := new(cfgset)
	prev := r.Attrib
	r.Attrib = true
	defer func() { r.Attrib = prev }()
	var cmps []cmp
	for _, n := range []config.Name{config.WTHWP, config.NLP, config.VC, config.WTHWPWEC} {
		cmps = append(cmps, cs.vsOrig(string(n), n, nil))
	}
	v, err := r.compare(cs, cmps, speedup)
	if err != nil {
		return nil, err
	}
	t := &stats.Table{Header: []string{
		"Config", "speedup", "spec fills", "useful", "late", "useless", "polluting", "victim hits",
	}}
	for i, c := range cmps {
		var spec, useful, late, useless, polluting, victims uint64
		for _, b := range Benches() {
			rep, err := r.AttribReport(b.Short, c.cfg)
			if err != nil {
				return nil, err
			}
			spec += rep.SpecFills.Total()
			useful += rep.Useful.Total()
			late += rep.Late.Total()
			useless += rep.Useless.Total()
			polluting += rep.Polluting.Total()
			victims += rep.VictimHits
		}
		frac := func(n uint64) string {
			if spec == 0 {
				return fmt.Sprintf("%d", n)
			}
			return fmt.Sprintf("%d (%.0f%%)", n, 100*float64(n)/float64(spec))
		}
		t.AddRow(c.label, pct(stats.WeightedAverageSpeedup(v[i])),
			fmt.Sprint(spec), frac(useful), frac(late), frac(useless),
			fmt.Sprint(polluting), fmt.Sprint(victims))
	}
	return t, nil
}

// table1 records which of the paper's Table 1 program transformations each
// kernel archetype models (loop coalescing, loop unrolling, statement
// reordering to increase overlap).
func table1(r *Runner) (*stats.Table, error) {
	rows := []struct{ bench, coalescing, unrolling, reordering string }{
		{"175.vpr", " ", "x", "x"},
		{"164.gzip", " ", "x", "x"},
		{"181.mcf", "x", " ", "x"},
		{"197.parser", " ", "x", " "},
		{"183.equake", "x", "x", "x"},
		{"177.mesa", "x", "x", " "},
	}
	t := &stats.Table{Header: []string{"Benchmark", "Loop Coalescing", "Loop Unrolling", "Statement Reordering"}}
	for _, row := range rows {
		t.AddRow(row.bench, row.coalescing, row.unrolling, row.reordering)
	}
	return t, nil
}

// extLatency is the paper's §7 future-work item "the effects of memory
// latency": the orig and wth-wp-wec configurations across DRAM round-trip
// latencies. Longer memories leave more latency for wrong execution to
// hide, so the WEC's edge should grow.
func extLatency(r *Runner) (*stats.Table, error) {
	cs := new(cfgset)
	cmps := wecPairs(cs, []int{100, 200, 400}, func(lat int) string { return fmt.Sprintf("%d cycles", lat) },
		func(c *sta.Config, lat int) { c.Mem.MemLat = lat })
	return r.byConfig(cs, "Latency", cmps, speedup, pct, true)
}

// extBlockSize is the paper's §7 future-work item "the effects of the
// block size": WEC speedup with 32/64/128-byte L1 blocks.
func extBlockSize(r *Runner) (*stats.Table, error) {
	cs := new(cfgset)
	cmps := wecPairs(cs, []int{32, 64, 128}, func(bs int) string { return fmt.Sprintf("%dB", bs) },
		func(c *sta.Config, bs int) { c.Mem.L1DBlock = bs })
	return r.byConfig(cs, "Block", cmps, speedup, pct, true)
}

// extBpred is the paper's §7 future-work item "the relationship of the
// branch prediction accuracy to the performance of the WEC": the WEC's
// speedup under direction predictors of increasing quality, beside orig's
// mean prediction accuracy. Worse prediction means more wrong-path
// execution to harvest.
func extBpred(r *Runner) (*stats.Table, error) {
	cs := new(cfgset)
	cmps := wecPairs(cs, []bpred.DirKind{bpred.DirTaken, bpred.DirBimodal, bpred.DirGshare, bpred.DirComb},
		bpred.DirKind.String, func(c *sta.Config, k bpred.DirKind) { c.Core.Bpred.Dir = k })
	t, err := r.byConfig(cs, "Predictor", cmps, speedup, pct, true)
	if err != nil {
		return nil, err
	}
	acc, err := r.compare(cs, cmps, func(or, _ *sta.Result) float64 { return or.Stats.BranchAccuracy() })
	if err != nil {
		return nil, err
	}
	t.Header = append(t.Header, "accuracy")
	for i, col := range acc {
		var sum float64
		for _, a := range col {
			sum += a
		}
		t.Rows[i] = append(t.Rows[i], fmt.Sprintf("%.1f%%", 100*sum/float64(len(col))))
	}
	return t, nil
}
