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

// relSpeedupPct is speedup as a percentage improvement (e.g. +9.7%).
func relSpeedupPct(base, res *sta.Result) float64 { return (speedup(base, res) - 1) * 100 }

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
	base := rows[0].Machine()
	var jobs []job
	for _, b := range Benches() {
		jobs = append(jobs, job{b.Short, base})
		for _, row := range rows[1:] {
			jobs = append(jobs, job{b.Short, row.Machine()})
		}
	}
	if err := r.batch(jobs); err != nil {
		return nil, err
	}
	hdr := []string{"Benchmark"}
	for _, row := range rows[1:] {
		hdr = append(hdr, row.Label())
	}
	t := &stats.Table{Header: hdr}
	perCol := make([][]float64, len(rows)-1)
	for _, b := range Benches() {
		bres, err := r.Result(b.Short, base)
		if err != nil {
			return nil, err
		}
		cells := []string{b.Short}
		for i, row := range rows[1:] {
			res, err := r.Result(b.Short, row.Machine())
			if err != nil {
				return nil, err
			}
			sp := stats.Speedup(bres.Stats.ParCycles, res.Stats.ParCycles)
			perCol[i] = append(perCol[i], sp)
			cells = append(cells, fmt.Sprintf("%.2fx", sp))
		}
		t.AddRow(cells...)
	}
	avg := []string{"average"}
	for _, col := range perCol {
		avg = append(avg, fmt.Sprintf("%.2fx", stats.WeightedAverageSpeedup(col)))
	}
	t.AddRow(avg...)
	return t, nil
}

var tuSweep = []int{1, 2, 4, 8, 16}

// fig9 reports whole-program speedups of orig and wth-wp-wec machines with
// 1-16 TUs against the single-TU orig machine.
func fig9(r *Runner) (*stats.Table, error) {
	cs := new(cfgset)
	mk := cs.main
	var jobs []job
	for _, b := range Benches() {
		for _, n := range tuSweep {
			jobs = append(jobs, job{b.Short, mk(config.Orig, n)})
			jobs = append(jobs, job{b.Short, mk(config.WTHWPWEC, n)})
		}
	}
	if err := cs.Err(); err != nil {
		return nil, err
	}
	if err := r.batch(jobs); err != nil {
		return nil, err
	}
	hdr := []string{"Benchmark"}
	for _, n := range tuSweep[1:] {
		hdr = append(hdr, fmt.Sprintf("orig %dTU", n))
	}
	for _, n := range tuSweep {
		hdr = append(hdr, fmt.Sprintf("wec %dTU", n))
	}
	t := &stats.Table{Header: hdr}
	for _, b := range Benches() {
		baseRes, err := r.Result(b.Short, mk(config.Orig, 1))
		if err != nil {
			return nil, err
		}
		cells := []string{b.Short}
		for _, n := range tuSweep[1:] {
			res, err := r.Result(b.Short, mk(config.Orig, n))
			if err != nil {
				return nil, err
			}
			cells = append(cells, stats.Pct(relSpeedupPct(baseRes, res)))
		}
		for _, n := range tuSweep {
			res, err := r.Result(b.Short, mk(config.WTHWPWEC, n))
			if err != nil {
				return nil, err
			}
			cells = append(cells, stats.Pct(relSpeedupPct(baseRes, res)))
		}
		t.AddRow(cells...)
	}
	return t, nil
}

// fig10 reports the wth-wp-wec speedup over the orig machine with the same
// thread-unit count.
func fig10(r *Runner) (*stats.Table, error) {
	cs := new(cfgset)
	mk := cs.main
	var jobs []job
	for _, b := range Benches() {
		for _, n := range tuSweep {
			jobs = append(jobs, job{b.Short, mk(config.Orig, n)})
			jobs = append(jobs, job{b.Short, mk(config.WTHWPWEC, n)})
		}
	}
	if err := cs.Err(); err != nil {
		return nil, err
	}
	if err := r.batch(jobs); err != nil {
		return nil, err
	}
	hdr := []string{"Benchmark"}
	for _, n := range tuSweep {
		hdr = append(hdr, fmt.Sprintf("%dTU", n))
	}
	t := &stats.Table{Header: hdr}
	perCol := make([][]float64, len(tuSweep))
	for _, b := range Benches() {
		cells := []string{b.Short}
		for i, n := range tuSweep {
			or, err := r.Result(b.Short, mk(config.Orig, n))
			if err != nil {
				return nil, err
			}
			we, err := r.Result(b.Short, mk(config.WTHWPWEC, n))
			if err != nil {
				return nil, err
			}
			perCol[i] = append(perCol[i], speedup(or, we))
			cells = append(cells, stats.Pct(relSpeedupPct(or, we)))
		}
		t.AddRow(cells...)
	}
	avg := []string{"average"}
	for _, col := range perCol {
		avg = append(avg, stats.Pct((stats.WeightedAverageSpeedup(col)-1)*100))
	}
	t.AddRow(avg...)
	return t, nil
}

// cfgset builds the machine configurations one experiment sweeps over,
// accumulating the first construction error instead of panicking; the
// experiment checks Err once after assembling its job list, before any
// simulation runs.
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

// fig11 compares all configurations at 8 TUs against orig.
func fig11(r *Runner) (*stats.Table, error) {
	cs := new(cfgset)
	names := config.Names()
	var jobs []job
	for _, b := range Benches() {
		for _, n := range names {
			jobs = append(jobs, job{b.Short, cs.at8(n, nil)})
		}
	}
	if err := cs.Err(); err != nil {
		return nil, err
	}
	if err := r.batch(jobs); err != nil {
		return nil, err
	}
	hdr := []string{"Benchmark"}
	for _, n := range names[1:] {
		hdr = append(hdr, string(n))
	}
	t := &stats.Table{Header: hdr}
	perCol := make([][]float64, len(names)-1)
	for _, b := range Benches() {
		or, err := r.Result(b.Short, cs.at8(config.Orig, nil))
		if err != nil {
			return nil, err
		}
		cells := []string{b.Short}
		for i, n := range names[1:] {
			res, err := r.Result(b.Short, cs.at8(n, nil))
			if err != nil {
				return nil, err
			}
			perCol[i] = append(perCol[i], speedup(or, res))
			cells = append(cells, stats.Pct(relSpeedupPct(or, res)))
		}
		t.AddRow(cells...)
	}
	avg := []string{"average"}
	for _, col := range perCol {
		avg = append(avg, stats.Pct((stats.WeightedAverageSpeedup(col)-1)*100))
	}
	t.AddRow(avg...)
	return t, nil
}

// fig12 sweeps L1 associativity (direct-mapped vs 4-way) for the victim
// cache and WEC configurations; each row's baseline is orig at the same
// associativity.
func fig12(r *Runner) (*stats.Table, error) {
	cs := new(cfgset)
	assocs := []int{1, 4}
	names := []config.Name{config.VC, config.WTHWPVC, config.WTHWPWEC}
	mkA := func(name config.Name, assoc int) sta.Config {
		return cs.at8(name, func(c *sta.Config) { c.Mem.L1DAssoc = assoc })
	}
	var jobs []job
	for _, b := range Benches() {
		for _, a := range assocs {
			jobs = append(jobs, job{b.Short, mkA(config.Orig, a)})
			for _, n := range names {
				jobs = append(jobs, job{b.Short, mkA(n, a)})
			}
		}
	}
	if err := cs.Err(); err != nil {
		return nil, err
	}
	if err := r.batch(jobs); err != nil {
		return nil, err
	}
	hdr := []string{"Config"}
	for _, b := range Benches() {
		hdr = append(hdr, b.Short)
	}
	hdr = append(hdr, "average")
	t := &stats.Table{Header: hdr}
	for _, a := range assocs {
		for _, n := range names {
			cells := []string{fmt.Sprintf("%dway %s", a, n)}
			var col []float64
			for _, b := range Benches() {
				or, err := r.Result(b.Short, mkA(config.Orig, a))
				if err != nil {
					return nil, err
				}
				res, err := r.Result(b.Short, mkA(n, a))
				if err != nil {
					return nil, err
				}
				col = append(col, speedup(or, res))
				cells = append(cells, stats.Pct(relSpeedupPct(or, res)))
			}
			cells = append(cells, stats.Pct((stats.WeightedAverageSpeedup(col)-1)*100))
			t.AddRow(cells...)
		}
	}
	return t, nil
}

// fig13 sweeps the L1 data cache size, reporting execution time normalized
// to orig with the smallest L1.
func fig13(r *Runner) (*stats.Table, error) {
	cs := new(cfgset)
	sizes := []int{4, 8, 16, 32} // KB
	mkS := func(name config.Name, kb int) sta.Config {
		return cs.at8(name, func(c *sta.Config) { c.Mem.L1DSize = kb * 1024 })
	}
	var jobs []job
	for _, b := range Benches() {
		for _, kb := range sizes {
			jobs = append(jobs, job{b.Short, mkS(config.Orig, kb)})
			jobs = append(jobs, job{b.Short, mkS(config.WTHWPWEC, kb)})
		}
	}
	if err := cs.Err(); err != nil {
		return nil, err
	}
	if err := r.batch(jobs); err != nil {
		return nil, err
	}
	hdr := []string{"Config"}
	for _, b := range Benches() {
		hdr = append(hdr, b.Short)
	}
	t := &stats.Table{Header: hdr}
	for _, name := range []config.Name{config.Orig, config.WTHWPWEC} {
		for _, kb := range sizes {
			cells := []string{fmt.Sprintf("%s %dk", name, kb)}
			for _, b := range Benches() {
				base, err := r.Result(b.Short, mkS(config.Orig, sizes[0]))
				if err != nil {
					return nil, err
				}
				res, err := r.Result(b.Short, mkS(name, kb))
				if err != nil {
					return nil, err
				}
				cells = append(cells, fmt.Sprintf("%.3f",
					res.Stats.EstCycles()/base.Stats.EstCycles()))
			}
			t.AddRow(cells...)
		}
	}
	return t, nil
}

// fig14 sweeps the shared L2 size (the paper's 128/256/512 KB progression,
// scaled 1:2:4 to this repo's workload footprints as 32/64/128 KB).
func fig14(r *Runner) (*stats.Table, error) {
	cs := new(cfgset)
	sizes := []int{32, 64, 128} // KB
	mkS := func(name config.Name, kb int) sta.Config {
		return cs.at8(name, func(c *sta.Config) { c.Mem.L2Size = kb * 1024 })
	}
	var jobs []job
	for _, b := range Benches() {
		for _, kb := range sizes {
			jobs = append(jobs, job{b.Short, mkS(config.Orig, kb)})
			jobs = append(jobs, job{b.Short, mkS(config.WTHWPWEC, kb)})
		}
	}
	if err := cs.Err(); err != nil {
		return nil, err
	}
	if err := r.batch(jobs); err != nil {
		return nil, err
	}
	hdr := []string{"Config"}
	for _, b := range Benches() {
		hdr = append(hdr, b.Short)
	}
	t := &stats.Table{Header: hdr}
	for _, name := range []config.Name{config.Orig, config.WTHWPWEC} {
		for _, kb := range sizes {
			cells := []string{fmt.Sprintf("%s %dk", name, kb)}
			for _, b := range Benches() {
				base, err := r.Result(b.Short, mkS(config.Orig, sizes[0]))
				if err != nil {
					return nil, err
				}
				res, err := r.Result(b.Short, mkS(name, kb))
				if err != nil {
					return nil, err
				}
				cells = append(cells, fmt.Sprintf("%.3f",
					res.Stats.EstCycles()/base.Stats.EstCycles()))
			}
			t.AddRow(cells...)
		}
	}
	return t, nil
}

// sweepSideSizes builds the Figure 15/16 style comparisons: relative
// speedup over orig for each (configuration, side-buffer entries) pair.
func sweepSideSizes(r *Runner, names []config.Name, sizes []int) (*stats.Table, error) {
	cs := new(cfgset)
	mkE := func(name config.Name, entries int) sta.Config {
		return cs.at8(name, func(c *sta.Config) { c.Mem.SideEntries = entries })
	}
	var jobs []job
	for _, b := range Benches() {
		jobs = append(jobs, job{b.Short, cs.at8(config.Orig, nil)})
		for _, n := range names {
			for _, e := range sizes {
				jobs = append(jobs, job{b.Short, mkE(n, e)})
			}
		}
	}
	if err := cs.Err(); err != nil {
		return nil, err
	}
	if err := r.batch(jobs); err != nil {
		return nil, err
	}
	hdr := []string{"Config"}
	for _, b := range Benches() {
		hdr = append(hdr, b.Short)
	}
	hdr = append(hdr, "average")
	t := &stats.Table{Header: hdr}
	for _, n := range names {
		for _, e := range sizes {
			cells := []string{fmt.Sprintf("%s %d", n, e)}
			var col []float64
			for _, b := range Benches() {
				or, err := r.Result(b.Short, cs.at8(config.Orig, nil))
				if err != nil {
					return nil, err
				}
				res, err := r.Result(b.Short, mkE(n, e))
				if err != nil {
					return nil, err
				}
				col = append(col, speedup(or, res))
				cells = append(cells, stats.Pct(relSpeedupPct(or, res)))
			}
			cells = append(cells, stats.Pct((stats.WeightedAverageSpeedup(col)-1)*100))
			t.AddRow(cells...)
		}
	}
	return t, nil
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
// reduction relative to orig.
func fig17(r *Runner) (*stats.Table, error) {
	cs := new(cfgset)
	var jobs []job
	for _, b := range Benches() {
		jobs = append(jobs, job{b.Short, cs.at8(config.Orig, nil)})
		jobs = append(jobs, job{b.Short, cs.at8(config.WTHWPWEC, nil)})
	}
	if err := cs.Err(); err != nil {
		return nil, err
	}
	if err := r.batch(jobs); err != nil {
		return nil, err
	}
	t := &stats.Table{Header: []string{
		"Benchmark", "L1 traffic increase", "L1 miss reduction",
	}}
	var trafficSum, missSum float64
	for _, b := range Benches() {
		or, err := r.Result(b.Short, cs.at8(config.Orig, nil))
		if err != nil {
			return nil, err
		}
		we, err := r.Result(b.Short, cs.at8(config.WTHWPWEC, nil))
		if err != nil {
			return nil, err
		}
		traffic := 100 * (float64(we.Stats.L1DTraffic) - float64(or.Stats.L1DTraffic)) /
			float64(or.Stats.L1DTraffic)
		miss := 100 * (float64(or.Stats.L1DMisses) - float64(we.Stats.L1DMisses)) /
			float64(or.Stats.L1DMisses)
		trafficSum += traffic
		missSum += miss
		t.AddRow(b.Short, fmt.Sprintf("%+.1f%%", traffic), fmt.Sprintf("%+.1f%%", miss))
	}
	n := float64(len(Benches()))
	t.AddRow("average", fmt.Sprintf("%+.1f%%", trafficSum/n), fmt.Sprintf("%+.1f%%", missSum/n))
	return t, nil
}

// ablation isolates the WEC's three roles (DESIGN.md decision 3): wrong
// fill isolation, victim caching, and next-line prefetching on wrong hits.
// Each row disables one role of the full wth-wp-wec configuration.
func ablation(r *Runner) (*stats.Table, error) {
	cs := new(cfgset)
	variants := []struct {
		name string
		mut  func(*sta.Config)
	}{
		{"wth-wp-wec (full)", nil},
		{"  -victim role", func(c *sta.Config) { c.Mem.WECNoVictim = true }},
		{"  -next-line role", func(c *sta.Config) { c.Mem.WECNoNextLine = true }},
		{"  -both", func(c *sta.Config) {
			c.Mem.WECNoVictim = true
			c.Mem.WECNoNextLine = true
		}},
	}
	var jobs []job
	for _, b := range Benches() {
		jobs = append(jobs, job{b.Short, cs.at8(config.Orig, nil)})
		for _, v := range variants {
			jobs = append(jobs, job{b.Short, cs.at8(config.WTHWPWEC, v.mut)})
		}
	}
	if err := cs.Err(); err != nil {
		return nil, err
	}
	if err := r.batch(jobs); err != nil {
		return nil, err
	}
	hdr := []string{"Config"}
	for _, b := range Benches() {
		hdr = append(hdr, b.Short)
	}
	hdr = append(hdr, "average")
	t := &stats.Table{Header: hdr}
	for _, v := range variants {
		cells := []string{v.name}
		var col []float64
		for _, b := range Benches() {
			or, err := r.Result(b.Short, cs.at8(config.Orig, nil))
			if err != nil {
				return nil, err
			}
			res, err := r.Result(b.Short, cs.at8(config.WTHWPWEC, v.mut))
			if err != nil {
				return nil, err
			}
			col = append(col, speedup(or, res))
			cells = append(cells, stats.Pct(relSpeedupPct(or, res)))
		}
		cells = append(cells, stats.Pct((stats.WeightedAverageSpeedup(col)-1)*100))
		t.AddRow(cells...)
	}
	return t, nil
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
	prevOn, prevTop := r.Attrib, r.AttribTopN
	r.Attrib = true
	defer func() { r.Attrib, r.AttribTopN = prevOn, prevTop }()
	names := []config.Name{config.WTHWP, config.NLP, config.VC, config.WTHWPWEC}
	var jobs []job
	for _, b := range Benches() {
		jobs = append(jobs, job{b.Short, cs.at8(config.Orig, nil)})
		for _, n := range names {
			jobs = append(jobs, job{b.Short, cs.at8(n, nil)})
		}
	}
	if err := cs.Err(); err != nil {
		return nil, err
	}
	if err := r.batch(jobs); err != nil {
		return nil, err
	}
	t := &stats.Table{Header: []string{
		"Config", "speedup", "spec fills", "useful", "late", "useless", "polluting", "victim hits",
	}}
	for _, n := range names {
		var col []float64
		var spec, useful, late, useless, polluting, victims uint64
		for _, b := range Benches() {
			or, err := r.Result(b.Short, cs.at8(config.Orig, nil))
			if err != nil {
				return nil, err
			}
			res, err := r.Result(b.Short, cs.at8(n, nil))
			if err != nil {
				return nil, err
			}
			rep, err := r.AttribReport(b.Short, cs.at8(n, nil))
			if err != nil {
				return nil, err
			}
			col = append(col, speedup(or, res))
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
		t.AddRow(string(n),
			stats.Pct((stats.WeightedAverageSpeedup(col)-1)*100),
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
	lats := []int{100, 200, 400}
	mk := func(name config.Name, lat int) sta.Config {
		return cs.at8(name, func(c *sta.Config) { c.Mem.MemLat = lat })
	}
	var jobs []job
	for _, b := range Benches() {
		for _, lat := range lats {
			jobs = append(jobs, job{b.Short, mk(config.Orig, lat)})
			jobs = append(jobs, job{b.Short, mk(config.WTHWPWEC, lat)})
		}
	}
	if err := cs.Err(); err != nil {
		return nil, err
	}
	if err := r.batch(jobs); err != nil {
		return nil, err
	}
	hdr := []string{"Latency"}
	for _, b := range Benches() {
		hdr = append(hdr, b.Short)
	}
	hdr = append(hdr, "average")
	t := &stats.Table{Header: hdr}
	for _, lat := range lats {
		cells := []string{fmt.Sprintf("%d cycles", lat)}
		var col []float64
		for _, b := range Benches() {
			or, err := r.Result(b.Short, mk(config.Orig, lat))
			if err != nil {
				return nil, err
			}
			we, err := r.Result(b.Short, mk(config.WTHWPWEC, lat))
			if err != nil {
				return nil, err
			}
			col = append(col, speedup(or, we))
			cells = append(cells, stats.Pct(relSpeedupPct(or, we)))
		}
		cells = append(cells, stats.Pct((stats.WeightedAverageSpeedup(col)-1)*100))
		t.AddRow(cells...)
	}
	return t, nil
}

// extBlockSize is the paper's §7 future-work item "the effects of the
// block size": WEC speedup with 32/64/128-byte L1 blocks.
func extBlockSize(r *Runner) (*stats.Table, error) {
	cs := new(cfgset)
	sizes := []int{32, 64, 128}
	mk := func(name config.Name, bs int) sta.Config {
		return cs.at8(name, func(c *sta.Config) { c.Mem.L1DBlock = bs })
	}
	var jobs []job
	for _, b := range Benches() {
		for _, bs := range sizes {
			jobs = append(jobs, job{b.Short, mk(config.Orig, bs)})
			jobs = append(jobs, job{b.Short, mk(config.WTHWPWEC, bs)})
		}
	}
	if err := cs.Err(); err != nil {
		return nil, err
	}
	if err := r.batch(jobs); err != nil {
		return nil, err
	}
	hdr := []string{"Block"}
	for _, b := range Benches() {
		hdr = append(hdr, b.Short)
	}
	hdr = append(hdr, "average")
	t := &stats.Table{Header: hdr}
	for _, bs := range sizes {
		cells := []string{fmt.Sprintf("%dB", bs)}
		var col []float64
		for _, b := range Benches() {
			or, err := r.Result(b.Short, mk(config.Orig, bs))
			if err != nil {
				return nil, err
			}
			we, err := r.Result(b.Short, mk(config.WTHWPWEC, bs))
			if err != nil {
				return nil, err
			}
			col = append(col, speedup(or, we))
			cells = append(cells, stats.Pct(relSpeedupPct(or, we)))
		}
		cells = append(cells, stats.Pct((stats.WeightedAverageSpeedup(col)-1)*100))
		t.AddRow(cells...)
	}
	return t, nil
}

// extBpred is the paper's §7 future-work item "the relationship of the
// branch prediction accuracy to the performance of the WEC": the WEC's
// speedup under direction predictors of increasing quality. Worse
// prediction means more wrong-path execution to harvest.
func extBpred(r *Runner) (*stats.Table, error) {
	cs := new(cfgset)
	kinds := []bpred.DirKind{bpred.DirTaken, bpred.DirBimodal, bpred.DirGshare, bpred.DirComb}
	mk := func(name config.Name, kind bpred.DirKind) sta.Config {
		return cs.at8(name, func(c *sta.Config) { c.Core.Bpred.Dir = kind })
	}
	var jobs []job
	for _, b := range Benches() {
		for _, k := range kinds {
			jobs = append(jobs, job{b.Short, mk(config.Orig, k)})
			jobs = append(jobs, job{b.Short, mk(config.WTHWPWEC, k)})
		}
	}
	if err := cs.Err(); err != nil {
		return nil, err
	}
	if err := r.batch(jobs); err != nil {
		return nil, err
	}
	hdr := []string{"Predictor"}
	for _, b := range Benches() {
		hdr = append(hdr, b.Short)
	}
	hdr = append(hdr, "average", "accuracy")
	t := &stats.Table{Header: hdr}
	for _, k := range kinds {
		cells := []string{k.String()}
		var col []float64
		var accSum float64
		for _, b := range Benches() {
			or, err := r.Result(b.Short, mk(config.Orig, k))
			if err != nil {
				return nil, err
			}
			we, err := r.Result(b.Short, mk(config.WTHWPWEC, k))
			if err != nil {
				return nil, err
			}
			col = append(col, speedup(or, we))
			accSum += or.Stats.BranchAccuracy()
			cells = append(cells, stats.Pct(relSpeedupPct(or, we)))
		}
		cells = append(cells, stats.Pct((stats.WeightedAverageSpeedup(col)-1)*100))
		cells = append(cells, fmt.Sprintf("%.1f%%", 100*accSum/float64(len(Benches()))))
		t.AddRow(cells...)
	}
	return t, nil
}
