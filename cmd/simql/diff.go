package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"

	"repro/internal/runstore"
)

// cmdDiff is the statistical comparison engine's CLI: it pairs two
// archived selections per (benchmark, scale), reports each metric's mean
// relative delta with a bootstrap confidence interval over the benchmark
// set, and exits nonzero on a significant regression.
func cmdDiff(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("diff", flag.ContinueOnError)
	root := fs.String("root", "runs", "archive root directory")
	tol := fs.Float64("tol", 0.01, "relative regression tolerated before the exit code trips")
	boot := fs.Int("boot", 10000, "bootstrap resamples")
	seed := fs.Uint64("seed", 0, "bootstrap RNG seed (0 = fixed default; any value is deterministic)")
	conf := fs.Float64("conf", 0.95, "confidence interval mass")
	format := fs.String("format", "table", "output format: table or json")
	if code, ok := parse(fs, args, stderr); !ok {
		return code
	}
	if fs.NArg() != 2 {
		return fail(stderr, fmt.Errorf("simql diff: want exactly two arguments (selector A and selector B)"))
	}

	ms, err := openAll(*root)
	if err != nil {
		return fail(stderr, err)
	}
	a, err := selectFrom(ms, fs.Arg(0))
	if err != nil {
		return fail(stderr, err)
	}
	b, err := selectFrom(ms, fs.Arg(1))
	if err != nil {
		return fail(stderr, err)
	}
	pairs, err := runstore.PairByBench(a, b)
	if err != nil {
		return fail(stderr, err)
	}

	var deltas []runstore.DeltaStat
	for _, met := range runstore.DiffMetrics() {
		deltas = append(deltas, runstore.Compare(pairs, met, *boot, *seed, *conf))
	}

	if *format == "json" {
		if err := writeJSON(stdout, map[string]any{
			"a": fs.Arg(0), "b": fs.Arg(1), "pairs": len(pairs), "metrics": deltas,
		}); err != nil {
			return fail(stderr, err)
		}
	} else {
		fmt.Fprintf(stdout, "diff: A=%q vs B=%q over %d paired benchmark(s)\n", fs.Arg(0), fs.Arg(1), len(pairs))
		fmt.Fprintf(stdout, "positive delta = B better; CI is the %.0f%% bootstrap interval over benchmarks\n\n", *conf*100)
		for _, d := range deltas {
			verdict := "ok"
			if d.Regressed(*tol) {
				verdict = "REGRESSED"
			} else if d.Mean > *tol && d.Lo > 0 {
				verdict = "improved"
			}
			fmt.Fprintf(stdout, "%-14s mean %+7.2f%%  CI [%+7.2f%%, %+7.2f%%]  %s\n",
				d.Metric, d.Mean*100, d.Lo*100, d.Hi*100, verdict)
			for _, b := range d.Benches {
				fmt.Fprintf(stdout, "    %-8s %14.4f -> %14.4f  (%+.2f%%)\n", b.Bench, b.A, b.B, b.Rel*100)
			}
		}
	}
	for _, d := range deltas {
		if d.Regressed(*tol) {
			fmt.Fprintf(stderr, "simql diff: %s regressed %.2f%% (CI [%+.2f%%, %+.2f%%], tolerance %.2f%%)\n",
				d.Metric, -d.Mean*100, d.Lo*100, d.Hi*100, *tol*100)
			return 1
		}
	}
	return 0
}

// writeJSON pretty-prints v to w.
func writeJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}
