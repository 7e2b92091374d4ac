// Command stasim runs a single benchmark on a single superthreaded
// processor configuration and prints its statistics.
//
// Usage:
//
//	stasim -bench mcf -config wth-wp-wec -tus 8
//	stasim -bench equake -config orig -tus 1 -scale 2
//	stasim -file examples/program.sta -config wth-wp-wec
//	stasim -bench gzip -disasm | head
//	stasim -list
//
// Observability (see README "Observability" and "Live telemetry"):
//
//	stasim -bench mcf -config wth-wp-wec -metrics m.json -timeline t.trace.json -interval 1000
//	stasim -bench mcf -metrics-csv series.csv -interval 500
//	stasim -bench mcf -scale 4 -progress
//	stasim -bench mcf -telemetry-addr 127.0.0.1:9180 -telemetry-dir tel/
//
// Fill attribution (see README "Attribution"):
//
//	stasim -bench mcf -config wth-wp-wec -attrib
//	stasim -bench mcf -config vc -attrib -attrib-top 10 -attrib-json report.json
//
// Cross-run analytics (see README "Cross-run analytics"):
//
//	stasim -bench mcf -config wth-wp-wec -archive runs/
//	simql list -root runs/
//
// Workload synthesis (see README "Workload synthesis"):
//
//	stasim -wgen-seed 7 -config wth-wp-wec
//	stasim -wgen-genome corpus/g0123456789abcdef.wgen -config wth-wp-wec -attrib
//	stasim -wgen-genome 'wgen1 seed=0x0000000000000007 win=2x8 ...'
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"time"

	"repro/internal/asm"
	"repro/internal/attrib"
	"repro/internal/config"
	"repro/internal/interp"
	"repro/internal/isa"
	"repro/internal/metrics"
	"repro/internal/runstore"
	"repro/internal/sample"
	"repro/internal/simerr"
	"repro/internal/sta"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/wgen"
	"repro/internal/workload"
)

func main() {
	var (
		bench   = flag.String("bench", "mcf", "benchmark (vpr, gzip, mcf, parser, equake, mesa)")
		cfgName = flag.String("config", "orig", "processor configuration (orig, vc, wp, wth, wth-wp, wth-wp-vc, wth-wp-wec, nlp)")
		tus     = flag.Int("tus", 8, "thread units")
		scale   = flag.Int("scale", 1, "workload scale factor")
		entries = flag.Int("side", 8, "side buffer entries (WEC/VC/PB)")
		l1kb    = flag.Int("l1", 8, "L1 data cache size in KB")
		l1way   = flag.Int("assoc", 1, "L1 data cache associativity")
		l2kb    = flag.Int("l2", 64, "shared L2 size in KB")
		file    = flag.String("file", "", "assemble and run a .sta source file instead of a benchmark")

		wgenGenome = flag.String("wgen-genome", "", "run a synthesized workload: a canonical genome line ('wgen1 seed=... ...') or a .wgen file")
		wgenSeed   = flag.Uint64("wgen-seed", 0, "synthesize and run the deterministic random genome for this seed (overridden by -wgen-genome)")

		disasm  = flag.Bool("disasm", false, "print the program listing instead of simulating")
		doTrace = flag.Bool("trace", false, "stream thread-lifecycle events to stderr")
		list    = flag.Bool("list", false, "list benchmarks and configurations")

		doAttrib     = flag.Bool("attrib", false, "attach the fill-attribution collector and print its summary")
		attribJSON   = flag.String("attrib-json", "", "write the attribution report as JSON to this file (implies -attrib)")
		attribTop    = flag.Int("attrib-top", attrib.DefaultTopN, "per-PC rows in the attribution report")
		attribWindow = flag.Uint64("attrib-window", 0, "pollution re-miss window in cycles (0 = default)")

		sampleWarmup  = flag.Uint64("sample-warmup", 0, "sampled simulation: detailed-but-unmeasured warmup instructions per period")
		sampleMeasure = flag.Uint64("sample-measure", 0, "sampled simulation: measured detailed instructions per period (0 = fully detailed run)")
		samplePeriod  = flag.Uint64("sample-period", 0, "sampled simulation: period length in instructions (must exceed warmup+measure; the rest fast-forwards)")
		sampleSeed    = flag.Uint64("sample-seed", 0, "sampled simulation: bootstrap RNG seed for the confidence intervals (0 = default)")

		dumpOnHang = flag.Bool("dump-on-hang", false, "on a deadlock or runaway failure, print the per-TU machine state dump to stderr")
		timeout    = flag.Duration("timeout", 0, "wall-clock limit for the run (0 = none)")
		watchdog   = flag.Uint64("watchdog", 0, "forward-progress watchdog window in cycles (0 = default)")

		progress      = flag.Bool("progress", false, "print a one-line heartbeat to stderr every second (cycle, cycles/s, IPC, est. remaining)")
		telemetryAddr = flag.String("telemetry-addr", "", "serve live introspection HTTP (/metrics, /runs, /healthz, /debug/pprof) on this address")
		telemetryDir  = flag.String("telemetry-dir", "", "write the span journal (spans.jsonl) and flight-recorder dumps into this directory")

		archiveDir = flag.String("archive", "", "archive this run's manifest into a content-addressed run archive (query with simql)")

		metricsOut  = flag.String("metrics", "", "write metrics JSON (counters, interval series, histograms) to this file")
		metricsCSV  = flag.String("metrics-csv", "", "write the interval time series as CSV to this file")
		timelineOut = flag.String("timeline", "", "write a Perfetto/chrome://tracing trace JSON to this file")
		interval    = flag.Uint64("interval", 10000, "sampling interval in cycles for the metrics time series")
		cpuprofile  = flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
		memprofile  = flag.String("memprofile", "", "write a pprof heap profile to this file")
	)
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		fatal(err)
		fatal(pprof.StartCPUProfile(f))
		defer pprof.StopCPUProfile()
	}

	if *list {
		fmt.Println("benchmarks:")
		for _, w := range workload.All() {
			fmt.Printf("  %-8s (%s, %s)\n", w.Short, w.Name, w.Suite)
		}
		fmt.Println("configurations:")
		for _, n := range config.Names() {
			fmt.Printf("  %s\n", n)
		}
		return
	}

	wgenSeedSet := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "wgen-seed" {
			wgenSeedSet = true
		}
	})

	var prog *isa.Program
	title := *bench
	if *wgenGenome != "" || wgenSeedSet {
		var g wgen.Genome
		var err error
		if *wgenGenome != "" {
			g, err = wgen.Load(*wgenGenome)
			fatal(err)
		} else {
			g = wgen.Random(*wgenSeed)
		}
		prog, err = g.Program()
		fatal(err)
		// The bench name embeds the genome hash, so -archive manifests of
		// generated runs are greppable by genome (simql grep <hash>).
		*bench = g.BenchName()
		title = fmt.Sprintf("%s [%s]", g.BenchName(), g.Canonical())
	} else if *file != "" {
		src, err := os.ReadFile(*file)
		fatal(err)
		prog, err = asm.Parse(string(src))
		fatal(err)
		title = *file
	} else {
		w, err := workload.ByName(*bench)
		fatal(err)
		prog, err = w.Build(*scale)
		fatal(err)
		title = fmt.Sprintf("%s (%s)", w.Short, w.Name)
	}

	if *disasm {
		for pc, in := range prog.Insts {
			for name, at := range prog.Symbols {
				if at == int64(pc) && isLabel(prog, name) {
					fmt.Printf("%s:\n", name)
				}
			}
			fmt.Printf("%5d  %s\n", pc, in)
		}
		return
	}

	cfg := config.Main(*tus)
	cfg.WatchdogCycles = *watchdog
	cfg.Mem.SideEntries = *entries
	cfg.Mem.L1DSize = *l1kb * 1024
	cfg.Mem.L1DAssoc = *l1way
	cfg.Mem.L2Size = *l2kb * 1024
	fatal(config.Apply(config.Name(*cfgName), &cfg))

	m, err := sta.New(cfg, prog)
	fatal(err)
	sc := sample.Config{
		WarmupInsts:  *sampleWarmup,
		MeasureInsts: *sampleMeasure,
		PeriodInsts:  *samplePeriod,
		Seed:         *sampleSeed,
	}
	fatal(sc.Validate())
	m.Sample = sc
	if *doTrace {
		m.Trace = trace.Writer{W: os.Stderr}
	}
	var col *metrics.Collector
	if *metricsOut != "" || *metricsCSV != "" || *timelineOut != "" {
		sampleEvery := *interval
		if *metricsOut == "" && *metricsCSV == "" {
			sampleEvery = 0 // timeline only: no series needed
		}
		col = metrics.NewCollector(sampleEvery)
		if *timelineOut != "" {
			col.Timeline = metrics.NewTimeline()
		}
		m.Metrics = col
	}
	var ac *attrib.Collector
	if *doAttrib || *attribJSON != "" {
		ac = attrib.NewCollector()
		ac.TopN = *attribTop
		ac.Window = *attribWindow
		m.Attrib = ac
	}
	var tr *telemetry.Run
	var cell *telemetry.Cell
	if *telemetryAddr != "" || *telemetryDir != "" {
		var terr error
		tr, terr = telemetry.Start(telemetry.Config{Addr: *telemetryAddr, Dir: *telemetryDir})
		fatal(terr)
		cell = tr.StartCell(*bench, *cfgName, 0)
		m.Tap = cell.Tap
	}
	if *progress && m.Tap == nil {
		m.Tap = &sta.ProgressTap{}
	}
	if *progress {
		// The functional reference gives the dynamic instruction count, so
		// the heartbeat can estimate remaining wall time from commit rate.
		var refInsts int64
		if ref, err := interp.Run(prog); err == nil {
			refInsts = ref.Insts
		}
		stop := make(chan struct{})
		defer close(stop)
		go heartbeat(m.Tap, refInsts, stop)
	}
	if *archiveDir != "" && *file != "" {
		fatal(fmt.Errorf("-archive needs a named benchmark; -file programs have no stable cell identity"))
	}
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	simStart := time.Now()
	res, err := m.RunContext(ctx)
	simWall := time.Since(simStart)
	if err != nil {
		if cell != nil {
			cell.Fail(err)
			tr.Close()
		}
		var se *simerr.Error
		if *dumpOnHang && errors.As(err, &se) &&
			(se.Kind == simerr.Deadlock || se.Kind == simerr.Runaway) {
			fmt.Fprintln(os.Stderr, se.DumpState())
		}
		fatal(err)
	}
	if cell != nil {
		cell.Done(res.Stats.Cycles)
		defer tr.Close()
	}

	if *metricsOut != "" {
		fatal(writeFile(*metricsOut, func(f *os.File) error {
			return col.WriteJSON(f, res.Stats.Cycles)
		}))
	}
	if *metricsCSV != "" {
		fatal(os.WriteFile(*metricsCSV, []byte(col.SeriesCSV()), 0o644))
	}
	if *timelineOut != "" {
		fatal(writeFile(*timelineOut, func(f *os.File) error {
			return col.Timeline.WriteJSON(f)
		}))
		if d := col.Timeline.Dropped; d > 0 {
			fmt.Fprintf(os.Stderr, "timeline: %d events dropped past the %d-event cap\n",
				d, metrics.DefaultMaxEvents)
		}
	}
	if *memprofile != "" {
		fatal(writeFile(*memprofile, func(f *os.File) error {
			runtime.GC()
			return pprof.WriteHeapProfile(f)
		}))
	}

	s := &res.Stats
	fmt.Printf("benchmark        %s\n", title)
	fmt.Printf("configuration    %s, %d TUs, L1 %dKB %d-way, L2 %dKB, side %d entries\n",
		*cfgName, *tus, *l1kb, *l1way, *l2kb, *entries)
	fmt.Printf("cycles           %d\n", s.Cycles)
	fmt.Printf("commits          %d (IPC %.2f)\n", s.Commits, s.IPC())
	fmt.Printf("parallel cycles  %d (%.1f%% of time)\n", s.ParCycles,
		100*float64(s.ParCycles)/float64(s.Cycles))
	fmt.Printf("forks/aborts     %d / %d (wrong threads: %d)\n", s.Forks, s.Aborts, s.WrongThreads)
	fmt.Printf("branches         %d (%.1f%% predicted)\n", s.Branches, 100*s.BranchAccuracy())
	fmt.Printf("L1D accesses     %d (miss rate %.3f, %d misses)\n",
		s.L1DAccesses, s.L1DMissRate(), s.L1DMisses)
	fmt.Printf("L1D traffic      %d (incl. wrong execution)\n", s.L1DTraffic)
	fmt.Printf("wrong loads      %d (wrong-path %d, wrong-thread %d)\n",
		s.WrongLoads, s.WrongPathLoads, s.WrongThLoads)
	fmt.Printf("side buffer      %d hits (%d on wrong-fetched blocks), %d inserts\n",
		s.WECHits, s.WrongUseful, s.WECInserts)
	fmt.Printf("prefetches       %d issued, %d useful\n", s.PrefIssued, s.PrefUseful)
	fmt.Printf("L2               %d accesses, %d misses; DRAM fills %d\n",
		s.L2Accesses, s.L2Misses, s.MemAccesses)
	fmt.Printf("update traffic   %d bus transactions\n", s.UpdateTraffic)
	fmt.Printf("memory checksum  %#x\n", res.MemCheck)
	if sp := s.Sampled; sp != nil {
		total := sp.DetailedInsts + sp.FFInsts
		cov := 0.0
		if total > 0 {
			cov = 100 * float64(sp.DetailedInsts) / float64(total)
		}
		fmt.Printf("sampling         %d windows (warmup %d / measure %d / period %d insts)\n",
			sp.Windows, sp.WarmupInsts, sp.MeasureInsts, sp.PeriodInsts)
		fmt.Printf("  detailed       %d insts in %d cycles (%.1f%% coverage); fast-forwarded %d insts\n",
			sp.DetailedInsts, sp.DetailedCycles, cov, sp.FFInsts)
		fmt.Printf("  est. cycles    %.0f  [%.0f, %.0f] 95%% CI\n", sp.EstCycles, sp.EstCyclesLo, sp.EstCyclesHi)
		fmt.Printf("  est. IPC       %.3f  [%.3f, %.3f]\n", sp.IPC, sp.IPCLo, sp.IPCHi)
		fmt.Printf("  est. L1D miss  %.4f  [%.4f, %.4f]\n", sp.L1DMiss, sp.L1DMissLo, sp.L1DMissHi)
	}

	var rep *attrib.Report
	if ac != nil {
		rep = ac.Report(s.Cycles)
		if *attribJSON != "" {
			fatal(writeFile(*attribJSON, func(f *os.File) error { return rep.WriteJSON(f) }))
		}
		fmt.Println()
		fatal(rep.WriteText(os.Stdout, symbolLabeler(prog)))
	}

	if *archiveDir != "" {
		st, err := runstore.Open(*archiveDir)
		fatal(err)
		man := runstore.New(*bench, *scale, cfg, res)
		man.Tool = "stasim"
		man.GitRev = runstore.GitRev()
		man.WallSeconds = simWall.Seconds()
		man.Attrib = runstore.SummarizeAttrib(rep)
		if tr != nil {
			man.RunID = tr.ID
			if tr.Dir() != "" {
				man.Artifacts = map[string]string{"spans": filepath.Join(tr.Dir(), "spans.jsonl")}
			}
		}
		if *metricsOut != "" {
			if man.Artifacts == nil {
				man.Artifacts = map[string]string{}
			}
			man.Artifacts["metrics"] = *metricsOut
		}
		if *attribJSON != "" {
			if man.Artifacts == nil {
				man.Artifacts = map[string]string{}
			}
			man.Artifacts["attrib"] = *attribJSON
		}
		fatal(st.Put(man))
		path := st.ManifestPath(man)
		fatal(st.Close())
		fmt.Printf("archived         %s\n", path)
	}
}

// heartbeat prints one progress line per second from the machine's tap:
// current cycle, simulation speed, aggregate IPC, and — when the functional
// reference ran — the estimated wall time remaining at the current commit
// rate.
func heartbeat(tap *sta.ProgressTap, refInsts int64, stop <-chan struct{}) {
	t := time.NewTicker(time.Second)
	defer t.Stop()
	var lastCycle, lastCommits uint64
	lastWall := time.Now()
	for {
		select {
		case <-stop:
			return
		case now := <-t.C:
			cycle, commits := tap.Latest()
			dt := now.Sub(lastWall).Seconds()
			if dt <= 0 {
				continue
			}
			cps := float64(cycle-lastCycle) / dt
			ips := float64(commits-lastCommits) / dt
			var ipc float64
			if cycle > 0 {
				ipc = float64(commits) / float64(cycle)
			}
			line := fmt.Sprintf("progress: cycle %d (%.0f cyc/s, IPC %.2f)", cycle, cps, ipc)
			if rem := refInsts - int64(commits); refInsts > 0 && ips > 0 && rem > 0 {
				eta := time.Duration(float64(rem) / ips * float64(time.Second))
				line += fmt.Sprintf(", est. %s remaining", eta.Round(time.Second))
			}
			fmt.Fprintln(os.Stderr, line)
			lastCycle, lastCommits, lastWall = cycle, commits, now
		}
	}
}

// symbolLabeler maps a PC to the nearest preceding code label plus offset,
// so the attribution top-PC table reads in source terms.
func symbolLabeler(p *isa.Program) func(pc int) string {
	type sym struct {
		at   int64
		name string
	}
	var syms []sym
	for name, at := range p.Symbols {
		if isLabel(p, name) {
			syms = append(syms, sym{at, name})
		}
	}
	sort.Slice(syms, func(i, j int) bool {
		if syms[i].at != syms[j].at {
			return syms[i].at < syms[j].at
		}
		return syms[i].name < syms[j].name
	})
	return func(pc int) string {
		i := sort.Search(len(syms), func(i int) bool { return syms[i].at > int64(pc) })
		if i == 0 {
			return ""
		}
		s := syms[i-1]
		if off := int64(pc) - s.at; off != 0 {
			return fmt.Sprintf("%s+%d", s.name, off)
		}
		return s.name
	}
}

// isLabel reports whether a symbol is a code label (its value is a valid
// instruction index rather than a data address).
func isLabel(p *isa.Program, name string) bool {
	v := p.Symbols[name]
	return v >= 0 && v < int64(len(p.Insts)) && v < asm.DataBase
}

// writeFile creates path and streams write's output into it.
func writeFile(path string, write func(*os.File) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
