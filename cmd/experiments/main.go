// Command experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	experiments -list
//	experiments -run fig11
//	experiments -run all [-scale 2] [-workers 8] [-v]
//
// Observability (see README "Observability" and "Live telemetry"):
//
//	experiments -run fig11 -v -interval 5000 -metrics-dir out/
//	experiments -run gain -v -attrib-dir attrib/
//	experiments -run all -cpuprofile cpu.pprof
//	experiments -run all -telemetry-addr 127.0.0.1:9180 -telemetry-dir tel/
//	experiments -span-timeline tel/spans.jsonl
//
// Robustness (see README "Robustness"): runs are supervised — a failed
// cell is quarantined and the rest of the suite still completes; Ctrl-C
// stops cleanly after flushing finished work. With a ledger, completed
// simulations are journaled as they finish; -resume replays the ledger
// and answers every detailed cell the -archive already holds:
//
//	experiments -run all -ledger results.jsonl
//	experiments -run all -ledger results.jsonl -resume
//	experiments -run all -archive runs/ -resume
//	experiments -run fig10 -timeout 2m
//	experiments -run fig10 -chaos-seed 7 -chaos-panic 1e-7
//
// Cross-run analytics (see README "Cross-run analytics"): with -archive,
// every completed cell writes a manifest into a content-addressed run
// archive that cmd/simql can list, diff, and render:
//
//	experiments -run fig11 -archive runs/
//	simql list -root runs/
//
// Workload synthesis (see README "Workload synthesis"): -run wgen drives
// the coverage-guided generator through the harness; every synthesized
// cell memoizes, journals, and archives under its genome-hash bench name:
//
//	experiments -run wgen -wgen-seed 7 -wgen-count 200 -wgen-corpus corpus/
//	experiments -run wgen -wgen-genome corpus/g0123456789abcdef.wgen
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"repro/internal/chaos"
	"repro/internal/harness"
	"repro/internal/runstore"
	"repro/internal/sample"
	"repro/internal/telemetry"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		list    = flag.Bool("list", false, "list available experiments")
		runID   = flag.String("run", "", "experiment id (table2, fig8..fig17) or 'all'")
		scale   = flag.Int("scale", 1, "workload scale factor (multiplies window counts)")
		workers = flag.Int("workers", 0, "concurrent simulations (0 = GOMAXPROCS)")
		verbose = flag.Bool("v", false, "print per-simulation progress")
		format  = flag.String("format", "table", "output format: table, csv, or json")

		interval   = flag.Uint64("interval", 0, "metrics sampling interval in cycles (0 = off; needs -metrics-dir to export)")
		metricsDir = flag.String("metrics-dir", "", "write one interval-series metrics JSON per simulation into this directory")
		attribDir  = flag.String("attrib-dir", "", "attach fill attribution and write one report JSON per simulation into this directory")
		cpuprofile = flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
		memprofile = flag.String("memprofile", "", "write a pprof heap profile to this file")

		telemetryAddr = flag.String("telemetry-addr", "", "serve live introspection HTTP (/metrics, /runs, /healthz, /debug/pprof) on this address")
		telemetryDir  = flag.String("telemetry-dir", "", "write the span journal (spans.jsonl) and flight-recorder dumps into this directory")
		spanTimeline  = flag.String("span-timeline", "", "convert a span JSONL file to Perfetto trace JSON (writes <file>.trace.json) and exit")

		sampleWarmup  = flag.Uint64("sample-warmup", 0, "sampled simulation: detailed-but-unmeasured warmup instructions per period")
		sampleMeasure = flag.Uint64("sample-measure", 0, "sampled simulation: measured detailed instructions per period (0 = fully detailed runs)")
		samplePeriod  = flag.Uint64("sample-period", 0, "sampled simulation: period length in instructions (must exceed warmup+measure; the rest fast-forwards)")
		sampleSeed    = flag.Uint64("sample-seed", 0, "sampled simulation: bootstrap RNG seed for the confidence intervals (0 = default)")

		timeout    = flag.Duration("timeout", 0, "wall-clock limit per simulation (0 = none)")
		ledgerPath = flag.String("ledger", "", "journal completed simulations to this JSONL file")
		resume     = flag.Bool("resume", false, "preload finished results from -ledger and detailed cells from -archive before running")
		archiveDir = flag.String("archive", "", "archive one manifest per completed cell into this content-addressed run archive (query with simql)")

		wgenSeed   = flag.Uint64("wgen-seed", 1, "search seed for -run wgen (fixes the whole synthesis trajectory)")
		wgenCount  = flag.Int("wgen-count", 200, "generated programs per -run wgen invocation")
		wgenGenome = flag.String("wgen-genome", "", "run one synthesized workload (canonical line or .wgen file) instead of the search")
		wgenCorpus = flag.String("wgen-corpus", "", "write coverage-adding (and any failing) genomes into this directory")

		chaosSeed     = flag.Uint64("chaos-seed", 0, "seed for the deterministic fault injector")
		chaosPanic    = flag.Float64("chaos-panic", 0, "per-cycle machine-step panic probability")
		chaosCore     = flag.Float64("chaos-core-panic", 0, "per-step core panic probability")
		chaosLivelock = flag.Float64("chaos-livelock", 0, "per-cycle livelock probability (trips the watchdog)")
		chaosSlow     = flag.Float64("chaos-slow", 0, "per-cycle slow-cycle probability (trips -timeout)")
		chaosLedger   = flag.Float64("chaos-ledger-fail", 0, "per-append transient ledger write-failure probability")
	)
	flag.Parse()

	switch *format {
	case "table", "csv", "json":
	default:
		fmt.Fprintf(os.Stderr, "experiments: unknown -format %q (want table, csv or json)\n", *format)
		flag.Usage()
		return 2
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return fail(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			return fail(err)
		}
		defer pprof.StopCPUProfile()
	}

	if *spanTimeline != "" {
		if err := convertSpans(*spanTimeline); err != nil {
			return fail(err)
		}
		return 0
	}

	if *list || *runID == "" {
		fmt.Println("available experiments:")
		for _, e := range harness.All() {
			fmt.Printf("  %-8s %s\n", e.ID, e.Title)
		}
		if *runID == "" {
			fmt.Println("\nrun one with: experiments -run <id>   (or -run all)")
		}
		return 0
	}

	// Ctrl-C cancels in-flight simulations; completed cells have already
	// been journaled and printed, so the suite resumes where it stopped.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	r := harness.NewRunner(*scale)
	r.Workers = *workers
	r.Ctx = ctx
	r.Timeout = *timeout
	r.Chaos = chaos.Config{
		Seed:         *chaosSeed,
		MachinePanic: *chaosPanic,
		CorePanic:    *chaosCore,
		Livelock:     *chaosLivelock,
		SlowCycle:    *chaosSlow,
	}
	if *verbose {
		r.Verbose = os.Stderr
	}
	var tr *telemetry.Run
	if *telemetryAddr != "" || *telemetryDir != "" {
		var err error
		tr, err = telemetry.Start(telemetry.Config{Addr: *telemetryAddr, Dir: *telemetryDir})
		if err != nil {
			return fail(err)
		}
		defer tr.Close()
		r.Telemetry = tr
	}
	if *metricsDir != "" {
		if *interval == 0 {
			*interval = 10000
		}
		if err := os.MkdirAll(*metricsDir, 0o755); err != nil {
			return fail(err)
		}
		r.MetricsDir = *metricsDir
	}
	r.MetricsInterval = *interval
	r.Sample = sample.Config{
		WarmupInsts:  *sampleWarmup,
		MeasureInsts: *sampleMeasure,
		PeriodInsts:  *samplePeriod,
		Seed:         *sampleSeed,
	}
	if err := r.Sample.Validate(); err != nil {
		return fail(err)
	}
	if *attribDir != "" {
		if err := os.MkdirAll(*attribDir, 0o755); err != nil {
			return fail(err)
		}
		r.Attrib = true
		r.AttribDir = *attribDir
	}

	if *resume && *ledgerPath == "" && *archiveDir == "" {
		return fail(fmt.Errorf("-resume requires -ledger or -archive"))
	}
	if *archiveDir != "" {
		st, err := runstore.Open(*archiveDir)
		if err != nil {
			return fail(err)
		}
		defer st.Close()
		r.Archive = st
		r.ArchiveTool = "experiments"
		r.ArchiveRev = runstore.GitRev()
		if tr != nil {
			tr.SetArchive(st.Root())
		}
		if *resume {
			archived := harness.ArchivedResults(st, *scale)
			r.Prefill(archived)
			if *verbose {
				fmt.Fprintf(os.Stderr, "resume: preloaded %d archived results from %s\n", len(archived), *archiveDir)
			}
		}
	}
	if *ledgerPath != "" {
		led, prior, err := harness.OpenLedger(*ledgerPath, *scale)
		if err != nil {
			return fail(err)
		}
		defer led.Close()
		if *chaosLedger > 0 {
			led.SetChaos(chaos.New(chaos.Config{Seed: *chaosSeed, LedgerFail: *chaosLedger}, "ledger"))
		}
		r.Ledger = led
		if tr != nil {
			tr.SetLedger(led.Path())
		}
		if *resume {
			r.Prefill(prior)
			if *verbose {
				fmt.Fprintf(os.Stderr, "resume: preloaded %d journaled results from %s\n", len(prior), *ledgerPath)
			}
		}
	}

	if *runID == "wgen" {
		return runWgen(r, wgenOptions{
			seed:   *wgenSeed,
			count:  *wgenCount,
			genome: *wgenGenome,
			corpus: *wgenCorpus,
		})
	}

	exps := harness.All()
	if *runID != "all" {
		e, err := harness.ByID(*runID)
		if err != nil {
			return fail(err)
		}
		exps = []harness.Experiment{e}
	}
	var failed []string
	for _, e := range exps {
		if ctx.Err() != nil {
			break
		}
		start := time.Now()
		if *verbose {
			fmt.Fprintf(os.Stderr, "== %s: %s\n", e.ID, e.Title)
		}
		if tr != nil {
			tr.BeginSuite(e.ID)
		}
		tbl, err := e.Run(r)
		if tr != nil {
			tr.EndSuite(telemetry.OutcomeOf(err), err)
		}
		if err != nil {
			// Quarantined: report, keep the rest of the suite moving.
			fmt.Fprintf(os.Stderr, "%s: %v\n", e.ID, err)
			var se *harness.SuiteError
			if errors.As(err, &se) && *verbose {
				fmt.Fprint(os.Stderr, se.Detail())
			}
			failed = append(failed, e.ID)
			continue
		}
		switch *format {
		case "csv":
			fmt.Printf("# %s: %s\n%s\n", e.ID, e.Title, tbl.CSV())
			continue
		case "json":
			js, err := tbl.JSON()
			if err != nil {
				return fail(err)
			}
			fmt.Println(js)
			continue
		}
		fmt.Printf("== %s: %s ==\n", e.ID, e.Title)
		fmt.Print(tbl.String())
		fmt.Printf("(%s in %.1fs)\n\n", e.ID, time.Since(start).Seconds())
	}

	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			return fail(err)
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			return fail(err)
		}
		if err := f.Close(); err != nil {
			return fail(err)
		}
	}

	if ctx.Err() != nil {
		hint := ""
		switch {
		case *ledgerPath != "":
			hint = fmt.Sprintf("; resume with -ledger %s -resume", *ledgerPath)
		case *archiveDir != "":
			hint = fmt.Sprintf("; resume with -archive %s -resume", *archiveDir)
		}
		if tr != nil {
			hint += fmt.Sprintf(" (telemetry run %s)", tr.ID)
		}
		fmt.Fprintf(os.Stderr, "experiments: interrupted, finished work flushed%s\n", hint)
		return 130
	}
	if len(failed) > 0 {
		fmt.Fprintf(os.Stderr, "experiments: %d of %d experiments failed: %s\n",
			len(failed), len(exps), strings.Join(failed, ", "))
		return 1
	}
	return 0
}

// convertSpans renders a span JSONL journal as Perfetto trace JSON next to
// it (<file>.trace.json), so suite spans load in the same UI as the
// cycle-level timeline from -timeline.
func convertSpans(path string) error {
	in, err := os.Open(path)
	if err != nil {
		return err
	}
	defer in.Close()
	outPath := path + ".trace.json"
	out, err := os.Create(outPath)
	if err != nil {
		return err
	}
	if err := telemetry.ConvertSpans(in, out); err != nil {
		out.Close()
		return err
	}
	if err := out.Close(); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", outPath)
	return nil
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, err)
	return 1
}
