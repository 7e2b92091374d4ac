// Command perfbench is the perf-regression harness: it measures the
// simulator's figure benchmarks plus a raw cycle-loop microbenchmark and
// writes the numbers to a JSON report (BENCH_speed.json by default).
//
// Each entry records wall time per simulation (ns/op), allocations per
// simulation (allocs/op), the simulated cycle count per run, and simulated
// cycles per host second. Two of those — allocs/op and sim cycles/op — are
// bit-deterministic and host-independent, which makes them safe CI gates;
// the wall-clock numbers depend on the host and are gated only with
// -strict.
//
//	perfbench -out BENCH_speed.json                 # measure
//	perfbench -check perf/BENCH_baseline.json       # measure + compare
//	perfbench -check old.json -strict -tolerance 0.1
//
// With -check, the process exits nonzero if any benchmark regressed more
// than -tolerance (default 10%) against the baseline file: always for
// allocs/op and sim cycles/op, and additionally for ns/op under -strict.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/asm"
	"repro/internal/config"
	"repro/internal/harness"
	"repro/internal/isa"
	"repro/internal/metrics"
	"repro/internal/sample"
	"repro/internal/sta"
	"repro/internal/workload"
)

// Entry is one benchmark's measurement.
type Entry struct {
	Name            string  `json:"name"`
	NsPerOp         float64 `json:"ns_per_op"`
	AllocsPerOp     int64   `json:"allocs_per_op"`
	BytesPerOp      int64   `json:"bytes_per_op"`
	SimCyclesPerOp  float64 `json:"sim_cycles_per_op"`
	SimCyclesPerSec float64 `json:"sim_cycles_per_sec"`
	Runs            int     `json:"runs"`
}

// Report is the BENCH_speed.json document.
type Report struct {
	Generated string `json:"generated"`
	GoVersion string `json:"go_version"`
	HostCPUs  int    `json:"host_cpus"`
	// GoMaxProcs is the CPU budget the measurements ran under. Wall-clock
	// numbers from different budgets are not comparable, so -check refuses
	// a baseline whose recorded budget differs.
	GoMaxProcs int     `json:"gomaxprocs"`
	Results    []Entry `json:"results"`
	// SuiteWallSeconds is the wall time of one full `experiments -run all`
	// regeneration at scale 1 (only measured with -suite). The pre-overhaul
	// simulator took 116.8s on the development host; the committed baseline
	// records the post-overhaul time for the same machine.
	SuiteWallSeconds float64 `json:"suite_wall_seconds,omitempty"`
}

// scenario names one (benchmark, configuration) simulation to measure.
type scenario struct {
	name     string
	bench    string
	cfgName  config.Name
	tus      int
	interval uint64 // metrics sampling interval; 0 = no collector
	tap      bool   // attach a telemetry progress tap (sta.Machine.Tap)
	sampled  bool   // run under the standard sampled-simulation regime
}

// sampleRegime is the fixed sampling configuration the sampled scenarios
// (and the CI accuracy smoke) use: 1k warmup + 2k measured instructions per
// 12k-instruction period, i.e. 25% detailed coverage.
func sampleRegime() sample.Config {
	return sample.Config{WarmupInsts: 1000, MeasureInsts: 2000, PeriodInsts: 12000}
}

func scenarios() []scenario {
	var out []scenario
	// Every figure benchmark under the full wth-wp-wec machine: this is the
	// configuration the paper's headline results (and the bulk of the
	// experiment suite's runtime) are built from.
	for _, w := range workload.All() {
		out = append(out, scenario{
			name:    "sim/" + w.Short + "/wth-wp-wec/8tu",
			bench:   w.Short,
			cfgName: config.WTHWPWEC,
			tus:     8,
		})
	}
	out = append(out,
		scenario{name: "sim/mcf/orig/8tu", bench: "mcf", cfgName: config.Orig, tus: 8},
		scenario{name: "sim/gzip/orig/1tu", bench: "gzip", cfgName: config.Orig, tus: 1},
		scenario{name: "sim/mcf/wth-wp-wec/8tu+metrics", bench: "mcf",
			cfgName: config.WTHWPWEC, tus: 8, interval: 10000},
		// The live-telemetry tap: its published cost is two atomic stores
		// plus a commit sweep every 1024 loop iterations, so this entry
		// should track the untapped mcf/wth-wp-wec/8tu numbers.
		scenario{name: "sim/mcf/wth-wp-wec/8tu+tap", bench: "mcf",
			cfgName: config.WTHWPWEC, tus: 8, tap: true},
	)
	// Scaling: the headline machine widened to 16 and 32 TUs. The names
	// keep their "/serial" suffix so the recorded trend stays continuous.
	for _, tus := range []int{16, 32} {
		out = append(out, scenario{name: fmt.Sprintf("scale/mcf/wth-wp-wec/%dtu/serial", tus),
			bench: "mcf", cfgName: config.WTHWPWEC, tus: tus})
	}
	// Sampled simulation under the standard regime (25% detailed coverage):
	// the headline benchmark again, so the sampled-vs-detailed ns/op ratio
	// for sim/mcf/wth-wp-wec/8tu is readable straight off the report.
	out = append(out, scenario{
		name:  "sim/mcf/wth-wp-wec/8tu+sampled",
		bench: "mcf", cfgName: config.WTHWPWEC, tus: 8, sampled: true,
	})
	return out
}

// measure runs one scenario under testing.Benchmark.
func measure(sc scenario) (Entry, error) {
	w, err := workload.ByName(sc.bench)
	if err != nil {
		return Entry{}, err
	}
	prog, err := w.Build(1)
	if err != nil {
		return Entry{}, err
	}
	cfg := config.Main(sc.tus)
	if err := config.Apply(sc.cfgName, &cfg); err != nil {
		return Entry{}, err
	}
	return run(sc, cfg, prog)
}

func run(sc scenario, cfg sta.Config, prog *isa.Program) (Entry, error) {
	var cycles uint64
	var failure error
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		cycles = 0
		for i := 0; i < b.N; i++ {
			m, err := sta.New(cfg, prog)
			if err != nil {
				failure = err
				b.FailNow()
			}
			if sc.sampled {
				m.Sample = sampleRegime()
			}
			if sc.interval > 0 {
				m.Metrics = metrics.NewCollector(sc.interval)
			}
			if sc.tap {
				m.Tap = &sta.ProgressTap{}
			}
			r, err := m.Run()
			if err != nil {
				failure = err
				b.FailNow()
			}
			cycles += r.Stats.Cycles
		}
	})
	if failure != nil {
		return Entry{}, fmt.Errorf("%s: %w", sc.name, failure)
	}
	perOp := float64(cycles) / float64(res.N)
	return Entry{
		Name:            sc.name,
		NsPerOp:         float64(res.NsPerOp()),
		AllocsPerOp:     res.AllocsPerOp(),
		BytesPerOp:      res.AllocedBytesPerOp(),
		SimCyclesPerOp:  perOp,
		SimCyclesPerSec: perOp / (float64(res.NsPerOp()) / 1e9),
		Runs:            res.N,
	}, nil
}

// microbench measures the raw per-cycle stepping overhead: a tight
// sequential ALU loop on one TU keeps the pipeline busy every cycle, so
// cycles/s here is the simulator's core-loop throughput with no memory
// system or threading activity in the way.
func microbench() (Entry, error) {
	b := asm.New()
	b.Li(1, 0)
	b.Li(2, 100_000)
	b.Label("loop")
	b.Op3(isa.ADD, 3, 1, 2)
	b.Op3(isa.XOR, 4, 3, 1)
	b.OpI(isa.SLLI, 5, 4, 1)
	b.Op3(isa.SUB, 6, 5, 3)
	b.OpI(isa.ADDI, 1, 1, 1)
	b.Br(isa.BLT, 1, 2, "loop")
	b.Halt()
	prog, err := b.Build()
	if err != nil {
		return Entry{}, err
	}
	cfg := config.Main(1)
	cfg.MaxCycles = 100_000_000
	return run(scenario{name: "micro/cycle-loop/1tu"}, cfg, prog)
}

func load(path string) (*Report, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Report
	if err := json.Unmarshal(raw, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// compare reports regressions of cur against base beyond tol. Allocations
// and simulated cycle counts are deterministic, so they are always gated;
// wall time only when strict is set.
func compare(base, cur *Report, tol float64, strict bool) []string {
	byName := make(map[string]Entry, len(base.Results))
	for _, e := range base.Results {
		byName[e.Name] = e
	}
	var bad []string
	for _, e := range cur.Results {
		b, ok := byName[e.Name]
		if !ok {
			continue
		}
		worse := func(metric string, now, then float64) {
			if then > 0 && now > then*(1+tol) {
				bad = append(bad, fmt.Sprintf("%s: %s regressed %.1f%% (%.0f -> %.0f)",
					e.Name, metric, (now/then-1)*100, then, now))
			}
		}
		worse("allocs/op", float64(e.AllocsPerOp), float64(b.AllocsPerOp))
		worse("sim-cycles/op", e.SimCyclesPerOp, b.SimCyclesPerOp)
		if strict {
			worse("ns/op", e.NsPerOp, b.NsPerOp)
		}
	}
	return bad
}

func main() {
	out := flag.String("out", "BENCH_speed.json", "write the measurement report here")
	check := flag.String("check", "", "baseline JSON to compare against; exit 1 on regression")
	tol := flag.Float64("tolerance", 0.10, "allowed relative regression before failing -check")
	strict := flag.Bool("strict", false, "also gate wall-clock ns/op (host-dependent) under -check")
	suite := flag.Bool("suite", false, "also time one full experiments regeneration (suite_wall_seconds)")
	history := flag.String("history", "perf/history", "also append a timestamped snapshot of the report into this directory (\"\" disables); simql diff -perf and simql report read the trend from here")
	flag.Parse()

	rep := &Report{
		Generated:  time.Now().UTC().Format(time.RFC3339),
		GoVersion:  runtime.Version(),
		HostCPUs:   runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
	}
	for _, sc := range scenarios() {
		e, err := measure(sc)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		fmt.Printf("%-36s %12.0f ns/op %8d allocs/op %14.0f cycles/s\n",
			e.Name, e.NsPerOp, e.AllocsPerOp, e.SimCyclesPerSec)
		rep.Results = append(rep.Results, e)
	}
	e, err := microbench()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Printf("%-36s %12.0f ns/op %8d allocs/op %14.0f cycles/s\n",
		e.Name, e.NsPerOp, e.AllocsPerOp, e.SimCyclesPerSec)
	rep.Results = append(rep.Results, e)

	if *suite {
		start := time.Now()
		r := harness.NewRunner(1)
		for _, ex := range harness.All() {
			if err := ex.RunTo(r, io.Discard); err != nil {
				fmt.Fprintln(os.Stderr, "perfbench:", err)
				os.Exit(1)
			}
		}
		rep.SuiteWallSeconds = time.Since(start).Seconds()
		fmt.Printf("%-36s %38.1f s\n", "suite/experiments-all", rep.SuiteWallSeconds)
	}

	raw, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := os.WriteFile(*out, append(raw, '\n'), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println("wrote", *out)

	if *history != "" {
		// The history directory accumulates one immutable snapshot per
		// measurement, named by the report's own UTC timestamp, so
		// `simql report` can plot the perf trend and `simql diff -perf`
		// can compare any two points. perf/.gitignore keeps snapshots out
		// of the repository; only the curated baseline is committed.
		if err := os.MkdirAll(*history, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		stamp := strings.Map(func(r rune) rune {
			if r == ':' {
				return '-'
			}
			return r
		}, rep.Generated)
		snap := filepath.Join(*history, stamp+".json")
		if err := os.WriteFile(snap, append(raw, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		fmt.Println("wrote", snap)
	}

	if *check != "" {
		base, err := load(*check)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		if base.HostCPUs != 0 && base.HostCPUs != rep.HostCPUs {
			// A different core count alone doesn't invalidate the gated
			// deterministic metrics, but it does shift wall-clock numbers,
			// so flag it for anyone reading ns/op deltas.
			fmt.Fprintf(os.Stderr,
				"perfbench: warning: baseline %s was measured on a %d-CPU host, this one has %d; "+
					"wall-clock (ns/op) comparisons are indicative only\n",
				*check, base.HostCPUs, rep.HostCPUs)
		}
		if base.GoMaxProcs != 0 && base.GoMaxProcs != rep.GoMaxProcs {
			fmt.Fprintf(os.Stderr,
				"perfbench: baseline %s was measured with GOMAXPROCS=%d but this run used %d; "+
					"wall-clock numbers are not comparable across CPU budgets — "+
					"re-run with GOMAXPROCS=%d or regenerate the baseline\n",
				*check, base.GoMaxProcs, rep.GoMaxProcs, base.GoMaxProcs)
			os.Exit(1)
		}
		if bad := compare(base, rep, *tol, *strict); len(bad) > 0 {
			for _, line := range bad {
				fmt.Fprintln(os.Stderr, "REGRESSION:", line)
			}
			os.Exit(1)
		}
		fmt.Printf("check against %s passed (tolerance %.0f%%)\n", *check, *tol*100)
	}
}
