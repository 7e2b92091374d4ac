package main

import (
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/config"
	"repro/internal/harness"
	"repro/internal/interp"
	"repro/internal/isa"
	"repro/internal/runstore"
	"repro/internal/sample"
	"repro/internal/sta"
	"repro/internal/workload"
)

var workloadNames = []string{"paper-suite", "sampled-survey", "single-machine", "archive-sweep"}

// paperIDs is the part of the paper suite one paper-suite pass regenerates:
// the tables and the headline figure, every configuration of the paper on
// the 8-TU machine most experiments use (48 cells, about 1.8 s on two
// CPUs). The whole suite takes about 19 s, too long for a pass.
var paperIDs = []string{"table1", "table2", "table3", "fig11", "fig17"}

// surveyRegime is the survey sampling regime README.md recommends for
// design-space surveys; the seed drives the bootstrap confidence intervals.
func surveyRegime(seed uint64) sample.Config {
	return sample.Config{WarmupInsts: 500, MeasureInsts: 1000, PeriodInsts: 30000, Seed: seed}
}

// surveyExperiments is every experiment except gain. Attribution under
// sampling fails its internal accounting check on every gain cell, and the
// quarantine then fails the ext-* cells those share; README.md records why.
func surveyExperiments() []harness.Experiment {
	var out []harness.Experiment
	for _, e := range harness.All() {
		if e.ID != "gain" {
			out = append(out, e)
		}
	}
	return out
}

func newWorkload(name string, seed uint64, workdir string, g *golden) (bench, error) {
	switch name {
	case "paper-suite":
		var exps []harness.Experiment
		for _, id := range paperIDs {
			e, err := harness.ByID(id)
			if err != nil {
				return nil, err
			}
			exps = append(exps, e)
		}
		return &suite{exps: exps, workdir: workdir, paper: true}, nil
	case "sampled-survey":
		return &suite{exps: surveyExperiments(), sample: surveyRegime(seed), workdir: workdir, accuracy: true, g: g}, nil
	case "archive-sweep":
		return &suite{exps: surveyExperiments(), sample: surveyRegime(seed), workdir: workdir, archive: true}, nil
	case "single-machine":
		return newMachines(seed, g), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

// allBenches names every benchmark program in the paper's order.
func allBenches() []string {
	var names []string
	for _, w := range workload.All() {
		names = append(names, w.Short)
	}
	return names
}

// build builds the named programs at the given scale, one worker per CPU,
// the way a Runner's cell workers build them on first use. Using every CPU
// also exposes set-up to the same host speed the calibration measures.
func build(scale int, names []string) (map[string]*isa.Program, error) {
	progs := make([]*isa.Program, len(names))
	errs := make([]error, len(names))
	next := make(chan int, len(names))
	for i := range names {
		next <- i
	}
	close(next)
	var wg sync.WaitGroup
	for k := 0; k < runtime.GOMAXPROCS(0); k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				w, err := workload.ByName(names[i])
				if err == nil {
					progs[i], err = w.Build(scale)
				}
				if err != nil {
					errs[i] = fmt.Errorf("build %s: %w", names[i], err)
				}
			}
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	out := make(map[string]*isa.Program, len(names))
	for i, n := range names {
		out[n] = progs[i]
	}
	return out, nil
}

// suite runs a list of experiments on a fresh harness.Runner per pass, the
// way `experiments -run` does: scale 1, one worker per CPU.
type suite struct {
	exps     []harness.Experiment
	sample   sample.Config
	workdir  string
	paper    bool // check the rendering against results_all.txt
	accuracy bool // gate the sampled estimate's error against detailed runs
	archive  bool // write pass with ledger and archive, then a read pass
	g        *golden

	progs map[string]*isa.Program
	want  string
	last  *harness.Runner
	errs  failures
}

func (s *suite) setup() error {
	progs, err := build(1, allBenches())
	if err != nil {
		return err
	}
	s.progs = progs
	if s.paper {
		want, err := paperSections(s.exps)
		if err != nil {
			return err
		}
		s.want = want
	}
	if s.archive {
		dir, err := os.MkdirTemp(s.workdir, "setup-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		st, err := openStores(dir, nil)
		if err != nil {
			return err
		}
		return st.close()
	}
	return nil
}

func (s *suite) runner(v io.Writer) *harness.Runner { return newRunner(s.progs, s.sample, v) }

// newRunner returns a fresh scale-1 Runner with one worker per CPU and the
// pre-built programs registered; v, when set, receives one line per freshly
// simulated cell.
func newRunner(progs map[string]*isa.Program, smp sample.Config, v io.Writer) *harness.Runner {
	r := harness.NewRunner(1)
	r.Workers = runtime.GOMAXPROCS(0)
	r.Sample = smp
	r.Verbose = v
	for name, p := range progs {
		r.RegisterProgram(name, p)
	}
	return r
}

func (s *suite) pass(tr *tracer) (passStats, error) {
	var ps passStats
	failed := map[string]bool{}
	var cells, resims lineCounter
	var dir string
	if s.archive || tr != nil {
		// The traced pass archives its cells too: the manifests carry the
		// per-cell wall times the harness per-layer metrics are made of.
		d, err := os.MkdirTemp(s.workdir, "pass-")
		if err != nil {
			return ps, err
		}
		defer os.RemoveAll(d)
		dir = d
	}
	var text, again string
	wall, cpu, err := timed(func() error {
		r := s.runner(&cells)
		s.last = r
		if tr != nil {
			if err := tr.references(r); err != nil {
				return err
			}
		}
		var err error
		if text, err = s.sweep(r, dir, tr, failed); err != nil || !s.archive {
			return err
		}
		// The read pass: a fresh Runner answers every cell from the ledger
		// the write pass left behind, and renders the tables again.
		again, err = s.sweep(s.runner(&resims), dir, tr, failed)
		return err
	})
	if err != nil {
		return ps, err
	}
	ps.wall, ps.cpu = wall, cpu
	if tr != nil {
		if err := tr.collectCells(filepath.Join(dir, "archive"), runtime.GOMAXPROCS(0), wall); err != nil {
			return ps, err
		}
	}
	if s.paper && text != s.want {
		s.errs.add(fmt.Errorf("paper-suite tables differ from results_all.txt:\n%s", firstDiff(s.want, text)))
	}
	if s.archive {
		if n := resims.n.Load(); n > 0 {
			s.errs.add(fmt.Errorf("archive read pass re-simulated %d cells instead of answering them from the ledger", n))
		}
		if again != text {
			s.errs.add(fmt.Errorf("archive read pass rendered different tables:\n%s", firstDiff(text, again)))
		}
	}
	ps.failed = len(failed)
	ps.attempted = int(cells.n.Load()) + ps.failed
	return ps, nil
}

// sweep renders every experiment on r, journaling to and resuming from the
// stores in dir when dir is set.
func (s *suite) sweep(r *harness.Runner, dir string, tr *tracer, failed map[string]bool) (string, error) {
	if dir == "" {
		return s.render(r, tr, failed)
	}
	st, err := openStores(dir, tr)
	if err != nil {
		return "", err
	}
	st.attach(r)
	text, err := s.render(r, tr, failed)
	return text, errors.Join(err, st.close())
}

// render runs every experiment and renders its table the way
// `experiments -run` does, without the timing suffix. Cells the harness
// quarantined are added to failed; the experiments they belong to are left
// out of the rendering.
func (s *suite) render(r *harness.Runner, tr *tracer, failed map[string]bool) (string, error) {
	var b strings.Builder
	for _, e := range s.exps {
		end := tr.begin("Experiment.Run " + e.ID)
		t, err := e.Run(r)
		end()
		if err != nil {
			var se *harness.SuiteError
			if !errors.As(err, &se) {
				return "", fmt.Errorf("%s: %w", e.ID, err)
			}
			for k := range se.Failures {
				failed[k] = true
			}
			continue
		}
		fmt.Fprintf(&b, "== %s: %s ==\n%s(%s)\n\n", e.ID, e.Title, t.String(), e.ID)
	}
	return b.String(), nil
}

// failures collects output-check failures, keeping the first few.
type failures []error

func (f *failures) add(err error) {
	if len(*f) < 4 {
		*f = append(*f, err)
	}
}

// check adds the accuracy gate on sampled-survey: the sampled estimate
// may not drift further from detailed simulation than golden.json records.
func (s *suite) check() error {
	if s.accuracy {
		errPP, cover, err := sampledAccuracy(s.last, s.progs)
		if err == nil {
			err = s.g.accuracy(errPP, cover)
		}
		if err != nil {
			s.errs.add(err)
		}
	}
	return errors.Join(s.errs...)
}

// sampledAccuracy compares the sampled Figure 11 cells of smp with detailed
// runs of the same cells on a fresh runner. It returns the mean absolute
// difference, in percentage points, between the relative speedups the
// EstCycles estimates give and the detailed ones over the 42 (benchmark,
// non-orig configuration) pairs, and the share of the 48 cells whose 95%
// EstCycles interval contains the detailed cycle count. Cells smp has not
// simulated yet are simulated on demand.
func sampledAccuracy(smp *harness.Runner, progs map[string]*isa.Program) (errPP, cover float64, err error) {
	det := newRunner(progs, sample.Config{}, nil)
	fig11, err := harness.ByID("fig11")
	if err != nil {
		return 0, 0, err
	}
	if _, err := fig11.Run(det); err != nil {
		return 0, 0, fmt.Errorf("detailed fig11: %w", err)
	}
	var errSum float64
	var pairs, covered, cells int
	for _, b := range workload.All() {
		var detBase, estBase float64
		for _, n := range config.Names() {
			cfg := config.Main(8)
			if err := config.Apply(n, &cfg); err != nil {
				return 0, 0, err
			}
			d, err := det.Result(b.Short, cfg)
			if err != nil {
				return 0, 0, err
			}
			sm, err := smp.Result(b.Short, cfg)
			if err != nil {
				return 0, 0, err
			}
			est := sm.Stats.Sampled
			if est == nil {
				return 0, 0, fmt.Errorf("%s/%s: sampled result carries no estimate", b.Short, n)
			}
			dc := float64(d.Stats.Cycles)
			cells++
			if est.EstCyclesLo <= dc && dc <= est.EstCyclesHi {
				covered++
			}
			if n == config.Orig {
				detBase, estBase = dc, est.EstCycles
				continue
			}
			errSum += math.Abs((estBase/est.EstCycles - 1) - (detBase/dc - 1))
			pairs++
		}
	}
	return 100 * errSum / float64(pairs), float64(covered) / float64(cells), nil
}

// stores is one pass's results ledger and run archive, opened in a
// directory; a resumed runner is prefilled from the ledger.
type stores struct {
	archive *runstore.Store
	ledger  *harness.Ledger
	prior   map[string]*sta.Result
}

func openStores(dir string, tr *tracer) (*stores, error) {
	end := tr.begin("runstore.Open")
	st, err := runstore.Open(filepath.Join(dir, "archive"))
	end()
	if err != nil {
		return nil, err
	}
	end = tr.begin("harness.OpenLedger")
	led, prior, err := harness.OpenLedger(filepath.Join(dir, "ledger.jsonl"), 1)
	end()
	if err != nil {
		st.Close()
		return nil, err
	}
	return &stores{archive: st, ledger: led, prior: prior}, nil
}

func (s *stores) attach(r *harness.Runner) {
	r.Archive, r.Ledger = s.archive, s.ledger
	r.Prefill(s.prior)
}

func (s *stores) close() error {
	return errors.Join(s.ledger.Close(), s.archive.Close())
}

// lineCounter counts the progress lines a Runner writes, one per freshly
// simulated cell.
type lineCounter struct{ n atomic.Int64 }

func (c *lineCounter) Write(p []byte) (int, error) {
	c.n.Add(1)
	return len(p), nil
}

// timingSuffix is the one nondeterministic field of results_all.txt, as
// scripts/regen_results.sh normalises it.
var timingSuffix = regexp.MustCompile(`(?m)^\((.+) in [0-9.]+s\)$`)

// paperSections returns the sections of results_all.txt for exps, with the
// timing suffix normalised away.
func paperSections(exps []harness.Experiment) (string, error) {
	raw, err := os.ReadFile("results_all.txt")
	if err != nil {
		return "", fmt.Errorf("paper-suite reads results_all.txt from the repository root: %w", err)
	}
	text := timingSuffix.ReplaceAllString(string(raw), "($1)")
	sections := map[string]string{}
	for _, sec := range strings.SplitAfter(text, "\n\n") {
		if id, _, ok := strings.Cut(strings.TrimPrefix(sec, "== "), ":"); ok && strings.HasPrefix(sec, "== ") {
			sections[id] = sec
		}
	}
	var b strings.Builder
	for _, e := range exps {
		sec, ok := sections[e.ID]
		if !ok {
			return "", fmt.Errorf("results_all.txt has no %s section", e.ID)
		}
		b.WriteString(sec)
	}
	return b.String(), nil
}

// firstDiff shows the first line where got departs from want.
func firstDiff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(w) || i < len(g); i++ {
		var wl, gl string
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if wl != gl {
			return fmt.Sprintf("line %d\n  want %q\n  got  %q", i+1, wl, gl)
		}
	}
	return "(identical)"
}

// machineScale is the workload scale of the single-machine runs.
const machineScale = 1

// machineTUs are the machine sizes of the single-machine workload: the
// sizes at which parallel stepping engages by default on two CPUs.
var machineTUs = []int{8, 16, 32}

// machineBenches are the programs of the single-machine workload: mcf, the
// paper's headline benchmark, and the two cheapest others, so that the nine
// machines of a pass take about 3 s on two CPUs.
var machineBenches = []string{"mcf", "gzip", "vpr"}

type machineRun struct {
	bench string
	tus   int
	cfg   sta.Config
}

func (r machineRun) key() string { return fmt.Sprintf("%s/%d", r.bench, r.tus) }

// machines runs big wth-wp-wec machines one at a time with the default
// Workers, the shape of a stasim invocation or a one-slot fleet worker.
type machines struct {
	g     *golden
	runs  []machineRun
	progs map[string]*isa.Program
	out   map[string]*sta.Result
	errs  failures
}

// newMachines lays out every program at every size, in an order drawn
// from the seed. Every seed runs the same machines, so the work per pass,
// and with it every end-to-end metric, does not depend on the seed.
func newMachines(seed uint64, g *golden) *machines {
	var runs []machineRun
	for _, b := range machineBenches {
		for _, tus := range machineTUs {
			cfg := config.Main(tus)
			_ = config.Apply(config.WTHWPWEC, &cfg) // a known name: cannot fail
			runs = append(runs, machineRun{bench: b, tus: tus, cfg: cfg})
		}
	}
	rng := rand.New(rand.NewSource(int64(seed)))
	rng.Shuffle(len(runs), func(i, j int) { runs[i], runs[j] = runs[j], runs[i] })
	return &machines{g: g, runs: runs, out: map[string]*sta.Result{}}
}

func (ms *machines) setup() error {
	progs, err := build(machineScale, machineBenches)
	ms.progs = progs
	return err
}

func (ms *machines) pass(tr *tracer) (passStats, error) {
	var ps passStats
	if tr != nil {
		if err := tr.interpReferences(ms.progs); err != nil {
			return ps, err
		}
	}
	wall, cpu, err := timed(func() error {
		for _, run := range ms.runs {
			ps.attempted++
			start := time.Now()
			end := tr.begin("sta.New " + run.key())
			m, err := sta.New(run.cfg, ms.progs[run.bench])
			end()
			if err != nil {
				return err
			}
			end = tr.begin("Machine.Run " + run.key())
			res, err := m.Run()
			end()
			if tr != nil {
				tr.cellWalls = append(tr.cellWalls, time.Since(start).Seconds())
			}
			if err != nil {
				ps.failed++
				ms.errs.add(fmt.Errorf("%s: %w", run.key(), err))
				continue
			}
			if prev, ok := ms.out[run.key()]; ok && (prev.Stats.Cycles != res.Stats.Cycles || prev.MemCheck != res.MemCheck) {
				ms.errs.add(fmt.Errorf("%s: nondeterministic: %d cycles, earlier pass %d", run.key(), res.Stats.Cycles, prev.Stats.Cycles))
			}
			ms.out[run.key()] = res
		}
		return nil
	})
	ps.wall, ps.cpu = wall, cpu
	if tr != nil {
		tr.passWall, tr.workers = wall, 1
	}
	return ps, err
}

// check compares every run's final memory with the functional reference
// and its cycle count with the golden.
func (ms *machines) check() error {
	refs := map[string]uint64{}
	for name, p := range ms.progs {
		ref, err := interp.Run(p)
		if err != nil {
			return fmt.Errorf("reference %s: %w", name, err)
		}
		refs[name] = ref.MemCheck
	}
	for _, run := range ms.runs {
		res, ok := ms.out[run.key()]
		if !ok {
			continue // failed, and already reported
		}
		if res.MemCheck != refs[run.bench] {
			ms.errs.add(fmt.Errorf("%s: memory checksum %#x, interpreter %#x", run.key(), res.MemCheck, refs[run.bench]))
		}
		if err := ms.g.machine(run.key(), res.Stats.Cycles); err != nil {
			ms.errs.add(err)
		}
	}
	return errors.Join(ms.errs...)
}
