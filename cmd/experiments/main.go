// Command experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	experiments -list
//	experiments -run fig11
//	experiments -run all [-scale 2] [-workers 8] [-v]
//
// Observability (see README "Observability" and "Live telemetry"): -out
// collects every artifact of the sweep in one directory — per-cell metrics
// and attribution JSON, the span journal and its Perfetto rendering,
// flight dumps and CPU/heap profiles of the instrumented sweep
// (with -telemetry-addr, /debug/pprof/profile owns CPU profiling and no
// cpu.pprof is written):
//
//	experiments -run fig11 -v -out out/
//	experiments -run all -telemetry-addr 127.0.0.1:9180 -out out/
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
	"io"
	"log/slog"
	"os"
	"os/signal"
	"strings"
	"time"

	"repro/internal/chaos"
	"repro/internal/harness"
	"repro/internal/runstore"
	"repro/internal/sample"
	"repro/internal/telemetry"
	"repro/internal/telemetry/serve"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes one experiments invocation and returns its exit status: 0
// on success, 1 when an experiment fails, 2 on a command-line error and
// 130 when interrupted.
func run(args []string, stdout, stderr io.Writer) (code int) {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		list    = fs.Bool("list", false, "list available experiments")
		runID   = fs.String("run", "", "experiment id (table2, fig8..fig17) or 'all'")
		scale   = fs.Int("scale", 1, "workload scale factor (multiplies window counts)")
		workers = fs.Int("workers", 0, "concurrent simulations (0 = GOMAXPROCS)")
		verbose = fs.Bool("v", false, "print per-simulation progress")
		format  = fs.String("format", "table", "output format: table, csv, or json")

		out           = fs.String("out", "", "write every run artifact (per-cell metrics and attribution, spans, flight dumps, profiles) into this directory")
		telemetryAddr = fs.String("telemetry-addr", "", "serve live introspection HTTP (/metrics, /runs, /healthz, /debug/pprof) on this address")

		sampleWarmup  = fs.Uint64("sample-warmup", 0, "sampled simulation: detailed-but-unmeasured warmup instructions per period")
		sampleMeasure = fs.Uint64("sample-measure", 0, "sampled simulation: measured detailed instructions per period (0 = fully detailed runs)")
		samplePeriod  = fs.Uint64("sample-period", 0, "sampled simulation: period length in instructions (must exceed warmup+measure; the rest fast-forwards)")
		sampleSeed    = fs.Uint64("sample-seed", 0, "sampled simulation: bootstrap RNG seed for the confidence intervals (0 = default)")

		timeout    = fs.Duration("timeout", 0, "wall-clock limit per simulation (0 = none)")
		ledgerPath = fs.String("ledger", "", "journal completed simulations to this JSONL file")
		resume     = fs.Bool("resume", false, "preload finished results from -ledger and detailed cells from -archive before running")
		archiveDir = fs.String("archive", "", "archive one manifest per completed cell into this content-addressed run archive (query with simql)")

		wgenSeed   = fs.Uint64("wgen-seed", 1, "search seed for -run wgen (fixes the whole synthesis trajectory)")
		wgenCount  = fs.Int("wgen-count", 200, "generated programs per -run wgen invocation")
		wgenGenome = fs.String("wgen-genome", "", "run one synthesized workload (canonical line or .wgen file) instead of the search")
		wgenCorpus = fs.String("wgen-corpus", "", "write coverage-adding (and any failing) genomes into this directory")

		chaosSeed     = fs.Uint64("chaos-seed", 0, "seed for the deterministic fault injector")
		chaosPanic    = fs.Float64("chaos-panic", 0, "per-cycle machine-step panic probability")
		chaosCore     = fs.Float64("chaos-core-panic", 0, "per-step core panic probability")
		chaosLivelock = fs.Float64("chaos-livelock", 0, "per-cycle livelock probability (trips the watchdog)")
		chaosSlow     = fs.Float64("chaos-slow", 0, "per-cycle slow-cycle probability (trips -timeout)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	switch *format {
	case "table", "csv", "json":
	default:
		fmt.Fprintf(stderr, "experiments: unknown -format %q (want table, csv or json)\n", *format)
		fs.Usage()
		return 2
	}

	if *list || *runID == "" {
		fmt.Fprintln(stdout, "available experiments:")
		for _, e := range harness.All() {
			fmt.Fprintf(stdout, "  %-8s %s\n", e.ID, e.Title)
		}
		if *runID == "" {
			fmt.Fprintln(stdout, "\nrun one with: experiments -run <id>   (or -run all)")
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
		r.Verbose = stderr
	}
	r.Out = *out
	var tr *telemetry.Run
	if *telemetryAddr != "" || *out != "" {
		var err error
		tr, err = telemetry.Start(telemetry.Config{
			Dir: *out,
			Log: slog.New(slog.NewTextHandler(stderr, nil)),
		})
		if err != nil {
			return fail(stderr, err)
		}
		var srv *serve.Server
		if *telemetryAddr != "" {
			if srv, err = serve.Start(tr, *telemetryAddr); err != nil {
				tr.Close()
				return fail(stderr, err)
			}
		}
		defer func() {
			if err := tr.Close(); err != nil && code == 0 {
				code = fail(stderr, err)
			}
			if srv != nil {
				srv.Close()
			}
		}()
		r.Telemetry = tr
		if *out != "" {
			// A served run leaves CPU profiling to /debug/pprof/profile.
			if err := tr.StartProfile(*telemetryAddr == ""); err != nil {
				return fail(stderr, err)
			}
		}
	}
	r.Sample = sample.Config{
		WarmupInsts:  *sampleWarmup,
		MeasureInsts: *sampleMeasure,
		PeriodInsts:  *samplePeriod,
		Seed:         *sampleSeed,
	}
	if err := r.Sample.Validate(); err != nil {
		return fail(stderr, err)
	}

	if *resume && *ledgerPath == "" && *archiveDir == "" {
		return fail(stderr, fmt.Errorf("-resume requires -ledger or -archive"))
	}
	if *archiveDir != "" {
		st, err := runstore.Open(*archiveDir)
		if err != nil {
			return fail(stderr, err)
		}
		defer st.Close()
		r.Archive = st
		r.ArchiveTool = "experiments"
		r.ArchiveRev = runstore.GitRev()
		if *resume {
			archived := harness.ArchivedResults(st, *scale)
			r.Prefill(archived)
			if *verbose {
				fmt.Fprintf(stderr, "resume: preloaded %d archived results from %s\n", len(archived), *archiveDir)
			}
		}
	}
	if *ledgerPath != "" {
		led, prior, err := harness.OpenLedger(*ledgerPath, *scale)
		if err != nil {
			return fail(stderr, err)
		}
		defer led.Close()
		r.Ledger = led
		if *resume {
			r.Prefill(prior)
			if *verbose {
				fmt.Fprintf(stderr, "resume: preloaded %d journaled results from %s\n", len(prior), *ledgerPath)
			}
		}
	}

	if *runID == "wgen" {
		return runWgen(r, wgenOptions{
			seed:   *wgenSeed,
			count:  *wgenCount,
			genome: *wgenGenome,
			corpus: *wgenCorpus,
		}, stdout, stderr)
	}

	exps := harness.All()
	if *runID != "all" {
		e, err := harness.ByID(*runID)
		if err != nil {
			return fail(stderr, err)
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
			fmt.Fprintf(stderr, "== %s: %s\n", e.ID, e.Title)
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
			fmt.Fprintf(stderr, "%s: %v\n", e.ID, err)
			var se *harness.SuiteError
			if errors.As(err, &se) && *verbose {
				fmt.Fprint(stderr, se.Detail())
			}
			failed = append(failed, e.ID)
			continue
		}
		switch *format {
		case "csv":
			fmt.Fprintf(stdout, "# %s: %s\n%s\n", e.ID, e.Title, tbl.CSV())
			continue
		case "json":
			js, err := tbl.JSON()
			if err != nil {
				return fail(stderr, err)
			}
			fmt.Fprintln(stdout, js)
			continue
		}
		fmt.Fprintf(stdout, "== %s: %s ==\n", e.ID, e.Title)
		fmt.Fprint(stdout, tbl.String())
		fmt.Fprintf(stdout, "(%s in %.1fs)\n\n", e.ID, time.Since(start).Seconds())
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
		fmt.Fprintf(stderr, "experiments: interrupted, finished work flushed%s\n", hint)
		return 130
	}
	if len(failed) > 0 {
		fmt.Fprintf(stderr, "experiments: %d of %d experiments failed: %s\n",
			len(failed), len(exps), strings.Join(failed, ", "))
		return 1
	}
	return 0
}

func fail(stderr io.Writer, err error) int {
	fmt.Fprintln(stderr, err)
	return 1
}
