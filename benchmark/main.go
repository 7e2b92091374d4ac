// Command wecbench is the repository's end-to-end benchmark. It runs one
// user-shaped workload of the simulator in-process for a fixed time,
// checks every output, and prints the end-to-end metrics; with -trace 1 it
// adds one traced pass plus the per-layer probes and prints the per-layer
// metrics instead. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 2976, "failed": 0, "metrics": {"wall_s": {"value": 2.41, "unit": "s"}, ...}}
//
// Run it through run.sh, from any directory:
//
//	bash benchmark/run.sh -workload sampled-survey -seed 1 -seconds 25 -trace 0
//
// The working directory must be the repository root (run.sh arranges it).
// README.md documents the workloads, the metrics, and which end-to-end
// metric each per-layer metric should move.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"time"
)

// setupReps is how often set-up runs before the timed passes. Set-up takes
// milliseconds, so its metric is the median of many repetitions.
const setupReps = 21

// bench is one benchmark workload: set-up that builds its inputs, a pass
// that is the unit of timed work, and untimed output checks.
type bench interface {
	// setup builds every program and opens every store the passes need.
	setup() error
	// pass runs one unit of work. A non-nil tracer records spans around the
	// layer calls and collects the harness per-layer numbers.
	pass(tr *tracer) (passStats, error)
	// check verifies the outputs of every pass run so far.
	check() error
}

// passStats is what one pass measured.
type passStats struct {
	wall, cpu float64 // seconds
	attempted int     // cells or machine runs simulated or failed
	failed    int
}

func main() { os.Exit(run()) }

func run() int {
	name := flag.String("workload", "", "workload: "+fmt.Sprint(workloadNames))
	seed := flag.Uint64("seed", 1, "workload seed (see README.md for what it selects)")
	seconds := flag.Int("seconds", 25, "measure timed passes for this many seconds")
	trace := flag.Int("trace", 0, "1 = add a traced pass and the layer probes, and print per-layer metrics")
	workdir := flag.String("workdir", ".bench_build", "directory for scratch stores and trace output")
	updateGolden := flag.Bool("update-golden", false, "rewrite benchmark/golden.json from this run instead of checking it")
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		return fail(errors.New("-seconds must be positive and -trace 0 or 1"))
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		return fail(err)
	}
	g, err := loadGolden(*updateGolden)
	if err != nil {
		return fail(err)
	}
	w, err := newWorkload(*name, *seed, *workdir, g)
	if err != nil {
		return fail(err)
	}

	// The first calibration of a process runs cold and slow; it only warms up.
	idle := runtime.NumGoroutine()
	if _, err := calibrate(idle); err != nil {
		return fail(err)
	}
	setupCal, err := calibrate(idle)
	if err != nil {
		return fail(err)
	}
	setup := make([]float64, setupReps)
	for i := range setup {
		runtime.GC()
		start := time.Now()
		if err := w.setup(); err != nil {
			return fail(fmt.Errorf("set-up: %w", err))
		}
		setup[i] = time.Since(start).Seconds()
	}

	// cal[i] is the calibration right before pass i; one more follows the
	// last pass. Every calibration starts from a collected heap, and so does
	// every pass: no pass pays for the garbage of the one before.
	var passes []passStats
	var cal []float64
	begin := time.Now()
	for len(passes) == 0 || time.Since(begin) < time.Duration(*seconds)*time.Second {
		c, err := calibrate(idle)
		if err != nil {
			return fail(err)
		}
		cal = append(cal, c)
		ps, err := w.pass(nil)
		if err != nil {
			return fail(err)
		}
		fmt.Fprintf(os.Stderr, "wecbench: pass %d: wall %.4fs cpu %.4fs calibration %.4fs\n",
			len(passes)+1, ps.wall, ps.cpu, c)
		passes = append(passes, ps)
	}
	c, err := calibrate(idle)
	if err != nil {
		return fail(err)
	}
	cal = append(cal, c)
	rss := peakRSSMB()
	fmt.Fprintf(os.Stderr, "wecbench: %s seed %d: %d passes in %.1fs\n",
		*name, *seed, len(passes), time.Since(begin).Seconds())

	var attempted, failed int
	walls := make([]float64, len(passes))
	cpus := make([]float64, len(passes))
	for i, p := range passes {
		attempted += p.attempted
		failed += p.failed
		speed := hostSpeed(cal[i], cal[i+1])
		walls[i], cpus[i] = p.wall*speed, p.cpu*speed
	}
	checkErr := w.check()
	m := newMetrics()
	m.add("setup_s", median(setup)*hostSpeed(setupCal, cal[0]), "s")
	m.add("wall_s", median(walls), "s")
	m.add("cpu_s", median(cpus), "s")
	m.add("peak_rss_mb", rss, "MB")

	if *trace == 1 {
		// End-to-end numbers above came from untraced passes; the traced
		// run reports only per-layer numbers, plus its own overhead.
		lm := newMetrics()
		if err := traced(w, *name, *seed, *workdir, idle, median(walls), g, lm); err != nil {
			checkErr = errors.Join(checkErr, err)
		}
		m = lm
	}
	if *updateGolden {
		if err := g.save(); err != nil {
			return fail(err)
		}
	}
	if checkErr != nil {
		fmt.Fprintln(os.Stderr, "wecbench: output check failed:", checkErr)
	}
	correct := checkErr == nil && failed == 0
	m.print(os.Stdout)
	line, err := json.Marshal(result{Correct: correct, Attempted: attempted, Failed: failed, Metrics: m.values})
	if err != nil {
		return fail(err)
	}
	fmt.Println(string(line))
	if !correct {
		return 1
	}
	return 0
}

// traced runs one traced pass under a CPU profile, then the per-layer
// probes, and writes the spans as Perfetto JSON and the profile beside it
// under workdir/trace.
func traced(w bench, name string, seed uint64, workdir string, idle int, untracedWall float64, g *golden, m *metrics) error {
	dir := filepath.Join(workdir, "trace")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tr := newTracer()
	before, err := calibrate(idle)
	if err != nil {
		return err
	}
	profPath := filepath.Join(dir, name+".cpu.pprof")
	f, err := os.Create(profPath)
	if err != nil {
		return err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return err
	}
	ps, err := w.pass(tr)
	pprof.StopCPUProfile()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	after, err := calibrate(idle)
	if err != nil {
		return err
	}
	if ps.failed > 0 {
		return fmt.Errorf("traced pass: %d of %d cells failed", ps.failed, ps.attempted)
	}
	tr.harnessMetrics(m)
	m.add("trace.overhead_frac", ps.wall*hostSpeed(before, after)/untracedWall-1, "ratio")
	if err := cpuShares(profPath, m); err != nil {
		return err
	}
	if err := layerMetrics(tr, seed, workdir, g, m); err != nil {
		return err
	}
	return tr.writePerfetto(filepath.Join(dir, name+".trace.json"))
}

// result is the JSON line the benchmark ends with.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics collects named values in the order they were added, for the
// human-readable listing.
type metrics struct {
	values map[string]metric
	order  []string
}

func newMetrics() *metrics { return &metrics{values: map[string]metric{}} }

func (m *metrics) add(name string, v float64, unit string) {
	if _, dup := m.values[name]; !dup {
		m.order = append(m.order, name)
	}
	m.values[name] = metric{Value: v, Unit: unit}
}

func (m *metrics) print(f *os.File) {
	for _, n := range m.order {
		v := m.values[n]
		fmt.Fprintf(f, "%-34s %14.6g %s\n", n, v.Value, v.Unit)
	}
}

// median returns the middle value (the mean of the two middle values for
// an even count) without reordering xs.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile interpolates linearly between closest ranks.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "wecbench:", err)
	return 1
}
