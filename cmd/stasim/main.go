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
// Observability (see README "Observability", "Fill attribution" and
// "Live telemetry"): -out writes every artifact of the run into one
// directory — metrics.json, series.csv, timeline.json, attrib.json,
// events.log, spans.jsonl and spans.trace.json, a flight-*.json dump on
// failure, cpu.pprof and heap.pprof (profiles of the instrumented run;
// with -telemetry-addr, /debug/pprof/profile owns CPU profiling and no
// cpu.pprof is written) — and prints the fill-attribution summary after
// the statistics:
//
//	stasim -bench mcf -config wth-wp-wec -out run/
//	stasim -bench mcf -scale 4 -progress
//	stasim -bench mcf -telemetry-addr 127.0.0.1:9180 -out run/
//
// Cross-run analytics (see README "Cross-run analytics"):
//
//	stasim -bench mcf -config wth-wp-wec -archive runs/
//	simql list -root runs/
//
// Workload synthesis (see README "Workload synthesis"):
//
//	stasim -wgen-seed 7 -config wth-wp-wec
//	stasim -wgen-genome corpus/g0123456789abcdef.wgen -config wth-wp-wec -out run/
//	stasim -wgen-genome 'wgen1 seed=0x0000000000000007 win=2x8 ...'
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
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
	"repro/internal/telemetry/serve"
	"repro/internal/trace"
	"repro/internal/wgen"
	"repro/internal/workload"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes one stasim invocation and returns its exit status: 0 on
// success, 1 when the run fails, 2 on a command-line error.
func run(args []string, stdout, stderr io.Writer) (code int) {
	fs := flag.NewFlagSet("stasim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		bench   = fs.String("bench", "mcf", "benchmark (vpr, gzip, mcf, parser, equake, mesa)")
		cfgName = fs.String("config", "orig", "processor configuration (orig, vc, wp, wth, wth-wp, wth-wp-vc, wth-wp-wec, nlp)")
		tus     = fs.Int("tus", 8, "thread units")
		scale   = fs.Int("scale", 1, "workload scale factor")
		entries = fs.Int("side", 8, "side buffer entries (WEC/VC/PB)")
		l1kb    = fs.Int("l1", 8, "L1 data cache size in KB")
		l1way   = fs.Int("assoc", 1, "L1 data cache associativity")
		l2kb    = fs.Int("l2", 64, "shared L2 size in KB")
		file    = fs.String("file", "", "assemble and run a .sta source file instead of a benchmark")

		wgenGenome = fs.String("wgen-genome", "", "run a synthesized workload: a canonical genome line ('wgen1 seed=... ...') or a .wgen file")
		wgenSeed   = fs.Uint64("wgen-seed", 0, "synthesize and run the deterministic random genome for this seed (overridden by -wgen-genome)")

		disasm = fs.Bool("disasm", false, "print the program listing instead of simulating")
		list   = fs.Bool("list", false, "list benchmarks and configurations")

		sampleWarmup  = fs.Uint64("sample-warmup", 0, "sampled simulation: detailed-but-unmeasured warmup instructions per period")
		sampleMeasure = fs.Uint64("sample-measure", 0, "sampled simulation: measured detailed instructions per period (0 = fully detailed run)")
		samplePeriod  = fs.Uint64("sample-period", 0, "sampled simulation: period length in instructions (must exceed warmup+measure; the rest fast-forwards)")
		sampleSeed    = fs.Uint64("sample-seed", 0, "sampled simulation: bootstrap RNG seed for the confidence intervals (0 = default)")

		timeout  = fs.Duration("timeout", 0, "wall-clock limit for the run (0 = none)")
		watchdog = fs.Uint64("watchdog", 0, "forward-progress watchdog window in cycles (0 = default)")

		progress      = fs.Bool("progress", false, "print a one-line heartbeat to stderr every second (cycle, cycles/s, IPC, est. remaining)")
		telemetryAddr = fs.String("telemetry-addr", "", "serve live introspection HTTP (/metrics, /runs, /healthz, /debug/pprof) on this address")
		archiveDir    = fs.String("archive", "", "archive this run's manifest into a content-addressed run archive (query with simql)")
		out           = fs.String("out", "", "write every run artifact (metrics, series, timeline, attribution, event log, spans, profiles) into this directory")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, err)
		return 1
	}

	if *list {
		fmt.Fprintln(stdout, "benchmarks:")
		for _, w := range workload.All() {
			fmt.Fprintf(stdout, "  %-8s (%s, %s)\n", w.Short, w.Name, w.Suite)
		}
		fmt.Fprintln(stdout, "configurations:")
		for _, n := range config.Names() {
			fmt.Fprintf(stdout, "  %s\n", n)
		}
		return 0
	}

	wgenSeedSet := false
	fs.Visit(func(f *flag.Flag) {
		if f.Name == "wgen-seed" {
			wgenSeedSet = true
		}
	})

	var prog *isa.Program
	var title string
	var err error
	if *wgenGenome != "" || wgenSeedSet {
		var g wgen.Genome
		if *wgenGenome != "" {
			if g, err = wgen.Load(*wgenGenome); err != nil {
				return fail(err)
			}
		} else {
			g = wgen.Random(*wgenSeed)
		}
		if prog, err = g.Program(); err != nil {
			return fail(err)
		}
		// The bench name embeds the genome hash, so -archive manifests of
		// generated runs are greppable by genome (simql grep <hash>).
		*bench = g.BenchName()
		title = fmt.Sprintf("%s [%s]", g.BenchName(), g.Canonical())
	} else if *file != "" {
		src, err := os.ReadFile(*file)
		if err != nil {
			return fail(err)
		}
		if prog, err = asm.Parse(string(src)); err != nil {
			return fail(err)
		}
		title = *file
	} else {
		w, err := workload.ByName(*bench)
		if err != nil {
			return fail(err)
		}
		if prog, err = w.Build(*scale); err != nil {
			return fail(err)
		}
		title = fmt.Sprintf("%s (%s)", w.Short, w.Name)
	}

	if *disasm {
		for pc, in := range prog.Insts {
			for name, at := range prog.Symbols {
				if at == int64(pc) && isLabel(prog, name) {
					fmt.Fprintf(stdout, "%s:\n", name)
				}
			}
			fmt.Fprintf(stdout, "%5d  %s\n", pc, in)
		}
		return 0
	}
	if *archiveDir != "" && *file != "" {
		return fail(fmt.Errorf("-archive needs a named benchmark; -file programs have no stable cell identity"))
	}

	cfg := config.Main(*tus)
	cfg.WatchdogCycles = *watchdog
	cfg.Mem.SideEntries = *entries
	cfg.Mem.L1DSize = *l1kb * 1024
	cfg.Mem.L1DAssoc = *l1way
	cfg.Mem.L2Size = *l2kb * 1024
	if err := config.Apply(config.Name(*cfgName), &cfg); err != nil {
		return fail(err)
	}
	m, err := sta.New(cfg, prog)
	if err != nil {
		return fail(err)
	}
	m.Sample = sample.Config{
		WarmupInsts:  *sampleWarmup,
		MeasureInsts: *sampleMeasure,
		PeriodInsts:  *samplePeriod,
		Seed:         *sampleSeed,
	}
	if err := m.Sample.Validate(); err != nil {
		return fail(err)
	}

	// The telemetry run creates -out; -out attaches every collector, and
	// its files are written after the run.
	var tr *telemetry.Run
	var cell *telemetry.Cell
	if *telemetryAddr != "" || *out != "" {
		tr, err = telemetry.Start(telemetry.Config{
			Dir: *out,
			Log: slog.New(slog.NewTextHandler(stderr, nil)),
		})
		if err != nil {
			return fail(err)
		}
		var srv *serve.Server
		if *telemetryAddr != "" {
			if srv, err = serve.Start(tr, *telemetryAddr); err != nil {
				tr.Close()
				return fail(err)
			}
		}
		defer func() {
			if err := tr.Close(); err != nil && code == 0 {
				code = fail(err)
			}
			if srv != nil {
				srv.Close()
			}
		}()
	}
	var col *metrics.Collector
	var ev *os.File
	var events *bufio.Writer
	if *out != "" {
		// A served run leaves CPU profiling to /debug/pprof/profile.
		if err := tr.StartProfile(*telemetryAddr == ""); err != nil {
			return fail(err)
		}
		ev, err = os.Create(filepath.Join(*out, "events.log"))
		if err != nil {
			return fail(err)
		}
		defer ev.Close()
		events = bufio.NewWriter(ev)
		defer events.Flush() // a failed run still leaves its events
		col = metrics.NewCollector(metrics.Interval)
		col.Timeline = trace.NewTimeline()
		col.Events = trace.Writer{W: events}
		col.Attrib = attrib.NewCollector() // a sampled run drops it
	}
	if tr != nil || *progress {
		if col == nil {
			col = &metrics.Collector{}
		}
		col.Tap = &metrics.ProgressTap{}
	}
	if tr != nil {
		cell = tr.StartCell(*bench, *cfgName, 0, col)
	}
	m.Obs = col
	if *progress {
		// The functional reference gives the dynamic instruction count, so
		// the heartbeat can estimate remaining wall time from commit rate.
		var refInsts int64
		if ref, err := interp.Run(prog); err == nil {
			refInsts = ref.Insts
		}
		stop := make(chan struct{})
		defer close(stop)
		go heartbeat(stderr, col.Tap, refInsts, stop)
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
		}
		var se *simerr.Error
		if errors.As(err, &se) && (se.Kind == simerr.Deadlock || se.Kind == simerr.Runaway) {
			fmt.Fprintln(stderr, se.DumpState())
		}
		return fail(err)
	}
	if cell != nil {
		cell.Done(res.Stats.Cycles)
	}

	s := &res.Stats
	var rep *attrib.Report
	if *out != "" {
		if col.Attrib != nil {
			rep = col.Attrib.Report(s.Cycles)
		} else {
			fmt.Fprintln(stderr, "attribution: none for a sampled run (fast-forwarding skips fills)")
		}
	}
	artifacts := runstore.Artifacts(*out, "", rep != nil, true)
	if *out != "" {
		files := map[string]func(io.Writer) error{
			artifacts["metrics"]: func(w io.Writer) error { return col.WriteJSON(w, s.Cycles) },
			filepath.Join(*out, "series.csv"): func(w io.Writer) error {
				_, err := io.WriteString(w, col.SeriesCSV())
				return err
			},
			filepath.Join(*out, "timeline.json"): col.Timeline.WriteJSON,
		}
		if rep != nil {
			files[artifacts["attrib"]] = rep.WriteJSON
		}
		for path, write := range files {
			if err := runstore.WriteArtifact(path, write); err != nil {
				return fail(err)
			}
		}
		if err := events.Flush(); err != nil {
			return fail(err)
		}
		if err := ev.Close(); err != nil {
			return fail(err)
		}
		if d := col.Timeline.Dropped; d > 0 {
			fmt.Fprintf(stderr, "timeline: %d events dropped past the %d-event cap\n",
				d, trace.DefaultMaxEvents)
		}
	}

	fmt.Fprintf(stdout, "benchmark        %s\n", title)
	fmt.Fprintf(stdout, "configuration    %s, %d TUs, L1 %dKB %d-way, L2 %dKB, side %d entries\n",
		*cfgName, *tus, *l1kb, *l1way, *l2kb, *entries)
	fmt.Fprintf(stdout, "cycles           %d\n", s.Cycles)
	fmt.Fprintf(stdout, "commits          %d (IPC %.2f)\n", s.Commits, s.IPC())
	fmt.Fprintf(stdout, "parallel cycles  %d (%.1f%% of time)\n", s.ParCycles,
		100*float64(s.ParCycles)/float64(s.Cycles))
	fmt.Fprintf(stdout, "forks/aborts     %d / %d (wrong threads: %d)\n", s.Forks, s.Aborts, s.WrongThreads)
	fmt.Fprintf(stdout, "branches         %d (%.1f%% predicted)\n", s.Branches, 100*s.BranchAccuracy())
	fmt.Fprintf(stdout, "L1D accesses     %d (miss rate %.3f, %d misses)\n",
		s.L1DAccesses, s.L1DMissRate(), s.L1DMisses)
	fmt.Fprintf(stdout, "L1D traffic      %d (incl. wrong execution)\n", s.L1DTraffic)
	fmt.Fprintf(stdout, "wrong loads      %d (wrong-path %d, wrong-thread %d)\n",
		s.WrongLoads, s.WrongPathLoads, s.WrongThLoads)
	fmt.Fprintf(stdout, "side buffer      %d hits (%d on wrong-fetched blocks), %d inserts\n",
		s.WECHits, s.WrongUseful, s.WECInserts)
	fmt.Fprintf(stdout, "prefetches       %d issued, %d useful\n", s.PrefIssued, s.PrefUseful)
	fmt.Fprintf(stdout, "L2               %d accesses, %d misses; DRAM fills %d\n",
		s.L2Accesses, s.L2Misses, s.MemAccesses)
	fmt.Fprintf(stdout, "update traffic   %d bus transactions\n", s.UpdateTraffic)
	fmt.Fprintf(stdout, "memory checksum  %#x\n", res.MemCheck)
	if sp := s.Sampled; sp != nil {
		total := sp.DetailedInsts + sp.FFInsts
		cov := 0.0
		if total > 0 {
			cov = 100 * float64(sp.DetailedInsts) / float64(total)
		}
		fmt.Fprintf(stdout, "sampling         %d windows (warmup %d / measure %d / period %d insts)\n",
			sp.Windows, sp.WarmupInsts, sp.MeasureInsts, sp.PeriodInsts)
		fmt.Fprintf(stdout, "  detailed       %d insts in %d cycles (%.1f%% coverage); fast-forwarded %d insts\n",
			sp.DetailedInsts, sp.DetailedCycles, cov, sp.FFInsts)
		fmt.Fprintf(stdout, "  est. cycles    %.0f  [%.0f, %.0f] 95%% CI\n", sp.EstCycles, sp.EstCyclesLo, sp.EstCyclesHi)
		fmt.Fprintf(stdout, "  est. IPC       %.3f  [%.3f, %.3f]\n", sp.IPC, sp.IPCLo, sp.IPCHi)
		fmt.Fprintf(stdout, "  est. L1D miss  %.4f  [%.4f, %.4f]\n", sp.L1DMiss, sp.L1DMissLo, sp.L1DMissHi)
	}
	if rep != nil {
		fmt.Fprintln(stdout)
		if err := rep.WriteText(stdout, symbolLabeler(prog)); err != nil {
			return fail(err)
		}
	}

	if *archiveDir != "" {
		st, err := runstore.Open(*archiveDir)
		if err != nil {
			return fail(err)
		}
		man := runstore.New(*bench, *scale, cfg, res)
		man.Tool = "stasim"
		man.GitRev = runstore.GitRev()
		man.WallSeconds = simWall.Seconds()
		man.Attrib = runstore.SummarizeAttrib(rep)
		man.Artifacts = artifacts
		if tr != nil {
			man.RunID = tr.ID
		}
		err = st.Put(man)
		if cerr := st.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "archived         %s\n", st.ManifestPath(man))
	}
	return 0
}

// heartbeat prints one progress line per second from the machine's tap:
// current cycle, simulation speed, aggregate IPC, and — when the functional
// reference ran — the estimated wall time remaining at the current commit
// rate.
func heartbeat(w io.Writer, tap *metrics.ProgressTap, refInsts int64, stop <-chan struct{}) {
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
			fmt.Fprintln(w, line)
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
