// Package harness regenerates every table and figure of the paper's
// evaluation (§5). Each experiment maps onto the per-experiment index in
// DESIGN.md and prints the same rows/series the paper reports. Results are
// memoized per (benchmark, machine configuration), and batches run on a
// worker pool sized to the host.
package harness

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"sync"
	"time"

	"repro/internal/attrib"
	"repro/internal/chaos"
	"repro/internal/interp"
	"repro/internal/isa"
	"repro/internal/metrics"
	"repro/internal/runstore"
	"repro/internal/sample"
	"repro/internal/simerr"
	"repro/internal/sta"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// Runner executes simulations with memoization and a worker pool.
type Runner struct {
	// Scale multiplies every benchmark's window count (1 = quick default).
	Scale int
	// Workers bounds concurrent simulations; 0 means GOMAXPROCS.
	Workers int
	// Verbose, when non-nil, receives one progress line per completed
	// simulation. Writes are serialized; any io.Writer is safe.
	Verbose io.Writer

	// Out, when set, is an existing directory that receives every fresh
	// cell's artifacts. Each simulation gets its own metrics collector
	// (interval series every metrics.Interval cycles) and fill-attribution
	// collector, so worker concurrency stays race-free, and exports them
	// as <bench>-<key>.metrics.json and <bench>-<key>.attrib.json (see
	// runstore.Artifacts). Sampled cells carry no attribution (see
	// sta.Machine.Obs).
	Out string

	// Attrib attaches a fill-attribution collector to every simulation
	// without writing files; reports are memoized beside the results (see
	// AttribReport). A result cached without attribution is re-simulated
	// when its report is first needed.
	Attrib bool

	// Ctx, when non-nil, cancels in-flight and pending simulations (wire
	// it to signal.NotifyContext for graceful SIGINT handling).
	Ctx context.Context
	// Timeout bounds each simulation's wall-clock time; 0 means no limit.
	// Expiry fails that cell with a Timeout-kind error.
	Timeout time.Duration
	// Chaos, when any probability is set, attaches a deterministic fault
	// injector to every simulation, salted with the cell's memo key.
	Chaos chaos.Config
	// Ledger, when non-nil, journals each completed cell so an interrupted
	// suite can resume (see OpenLedger and Prefill).
	Ledger *Ledger
	// Archive, when non-nil, archives every fresh completed cell's
	// manifest (config hash, provenance, deterministic counters, artifact
	// references) into the content-addressed run store. The put happens
	// before the ledger append, so a journaled cell is always archived: an
	// interrupted sweep resumed from its ledger converges on exactly one
	// manifest per cell.
	Archive *runstore.Store
	// ArchiveTool names the producing CLI in manifests ("" = "harness").
	ArchiveTool string
	// ArchiveRev is the git revision stamped on manifests (best-effort;
	// see runstore.GitRev).
	ArchiveRev string
	// Telemetry, when non-nil, scopes this runner's work under a live
	// telemetry run: every fresh cell opens a span and publishes progress
	// through its collector's metrics.ProgressTap (visible in the run's
	// /metrics and /runs documents), failures stamp the run/span identity
	// onto their errors and write a flight dump, and suite progress is
	// logged structurally instead of through Verbose.
	Telemetry *telemetry.Run

	// Sample, when enabled, runs every cell as a SMARTS-style sampled
	// simulation (sta.Machine.Sample): detailed execution only inside
	// measurement windows, functional fast-forward in between, and a
	// whole-run estimate with confidence intervals on each result. Sampled
	// cells memoize, journal, and archive under the sampled memo key
	// (runstore.MemoKeySampled), so they can never be silently compared
	// against detailed runs. The architectural cross-check against the
	// functional reference still applies — fast-forward is exact on memory.
	Sample sample.Config

	mu      sync.Mutex
	results map[string]*sta.Result
	attribs map[string]*attrib.Report
	progs   map[string]*isa.Program
	refs    map[string]*interp.Result
	failed  map[string]error // quarantined cells: memo key -> first failure

	vmu       sync.Mutex
	completed int
}

// NewRunner returns a Runner at the given workload scale.
func NewRunner(scale int) *Runner {
	if scale < 1 {
		scale = 1
	}
	return &Runner{
		Scale:   scale,
		results: make(map[string]*sta.Result),
		attribs: make(map[string]*attrib.Report),
		progs:   make(map[string]*isa.Program),
		refs:    make(map[string]*interp.Result),
	}
}

// Benches returns the benchmark list in the paper's order.
func Benches() []*workload.Workload { return workload.All() }

// RegisterProgram installs a pre-built program under a bench name, giving
// it the exact cell lifecycle of a hand-written workload: memoization,
// reference interpretation, ledger journaling, and archive manifests. This
// is how synthesized workloads (wgen) enter the harness — their bench name
// embeds the genome hash, so the memo keys, ledger entries, and manifests
// of generated cells are greppable by genome.
func (r *Runner) RegisterProgram(bench string, p *isa.Program) {
	r.mu.Lock()
	r.progs[bench] = p
	r.mu.Unlock()
}

// program builds (and caches) a benchmark binary.
func (r *Runner) program(bench string) (*isa.Program, error) {
	r.mu.Lock()
	p, ok := r.progs[bench]
	r.mu.Unlock()
	if ok {
		return p, nil
	}
	w, err := workload.ByName(bench)
	if err != nil {
		return nil, err
	}
	p, err = w.Build(r.Scale)
	if err != nil {
		return nil, err
	}
	r.mu.Lock()
	r.progs[bench] = p
	r.mu.Unlock()
	return p, nil
}

// Reference runs (and caches) the functional interpreter for a benchmark.
// The cached result keeps the counts, registers and MemCheck but not the
// final image: its Mem is nil, since runs are checked against MemCheck.
func (r *Runner) Reference(bench string) (*interp.Result, error) {
	r.mu.Lock()
	ref, ok := r.refs[bench]
	r.mu.Unlock()
	if ok {
		return ref, nil
	}
	p, err := r.program(bench)
	if err != nil {
		return nil, err
	}
	ref, err = interp.Run(p)
	if err != nil {
		return nil, err
	}
	ref.Mem = nil
	r.mu.Lock()
	r.refs[bench] = ref
	r.mu.Unlock()
	return ref, nil
}

type job struct {
	bench string
	cfg   sta.Config
}

// MemoKey renders the memoization key for a (benchmark, configuration)
// cell — the identity under which results are cached, journaled to the
// ledger, and content-addressed in the run archive. The rendering lives in
// runstore so every producer and consumer of archive hashes agrees on it.
func MemoKey(bench string, cfg sta.Config) string {
	return runstore.MemoKey(bench, cfg)
}

// key renders this runner's memo key for a cell: the detailed key, plus
// the canonical sampling suffix when the runner executes sampled
// simulations — so sampled and detailed results never share a memo slot,
// a ledger entry, or an archive address.
func (r *Runner) key(bench string, cfg sta.Config) string {
	if r.Sample.Enabled() {
		return runstore.MemoKeySampled(bench, cfg,
			r.Sample.WarmupInsts, r.Sample.MeasureInsts, r.Sample.PeriodInsts)
	}
	return MemoKey(bench, cfg)
}

// Result runs one simulation (memoized) and validates the architectural
// outcome against the functional reference. Every fresh run is also checked
// against the cross-counter statistic invariants, and — when Attrib is set —
// against the attribution report's internal accounting.
//
// Runs are supervised: panics anywhere in the cell become Panic-kind
// errors instead of killing the process, Ctx/Timeout bound the run, a
// failed export write is an IO-kind failure, and a failed cell is
// quarantined so later lookups fail fast (see SuiteError).
func (r *Runner) Result(bench string, cfg sta.Config) (res *sta.Result, err error) {
	k := r.key(bench, cfg)
	var cell *telemetry.Cell
	defer func() {
		if rec := recover(); rec != nil {
			res, err = nil, r.quarantine(k, bench, simerr.FromPanic("harness.Result", rec))
		}
		// Telemetry finalization sees the recovered error too: a failed
		// cell ends its span with the simerr outcome and writes its
		// flight dump; a successful one records the final cycle.
		if cell == nil {
			return
		}
		if err != nil {
			cell.Fail(err)
		} else if res != nil {
			cell.Done(res.Stats.Cycles)
		}
	}()
	r.mu.Lock()
	if qerr, bad := r.failed[k]; bad {
		r.mu.Unlock()
		return nil, qerr
	}
	res, ok := r.results[k]
	if ok && r.Attrib && r.attribs[k] == nil {
		ok = false // cached without attribution: simulate again for the report
	}
	r.mu.Unlock()
	if ok {
		return res, nil
	}
	var col *metrics.Collector
	if r.Out != "" {
		col = metrics.NewCollector(metrics.Interval)
	} else if r.Attrib || r.Telemetry != nil {
		col = &metrics.Collector{}
	}
	if r.Attrib || r.Out != "" {
		col.Attrib = attrib.NewCollector() // a sampled run drops it
	}
	if r.Telemetry != nil {
		// Per cell, not per batch: wgen cells reach Result directly.
		if r.Ledger != nil {
			r.Telemetry.SetLedger(r.Ledger.Path())
		}
		if r.Archive != nil {
			r.Telemetry.SetArchive(r.Archive.Root())
		}
		cell = r.Telemetry.StartCell(bench, "cfg-"+shortKey(k), r.Chaos.Seed, col)
	}
	p, err := r.program(bench)
	if err != nil {
		return nil, r.quarantine(k, bench, simerr.Classify("harness.Result", err, simerr.BadProgram))
	}
	ref, err := r.Reference(bench)
	if err != nil {
		return nil, r.quarantine(k, bench, simerr.Classify("harness.Result", err, simerr.BadProgram))
	}
	simStart := time.Now()
	m, err := sta.New(cfg, p)
	if err != nil {
		return nil, r.quarantine(k, bench, simerr.Classify("harness.Result", err, simerr.BadProgram))
	}
	m.Sample = r.Sample
	m.Obs = col
	res, err = r.runSupervised(k, m, cell)
	if err != nil {
		return nil, r.quarantine(k, bench, err)
	}
	var rep *attrib.Report
	if col != nil && col.Attrib != nil {
		rep = col.Attrib.Report(res.Stats.Cycles)
	}
	simWall := time.Since(simStart)
	if res.MemCheck != ref.MemCheck {
		return nil, r.quarantine(k, bench, simerr.Errorf(simerr.BadProgram, "harness.Result",
			"architectural mismatch: machine %#x, reference %#x (configuration changed results)",
			res.MemCheck, ref.MemCheck))
	}
	if err := res.Stats.CheckInvariants(); err != nil {
		return nil, r.quarantine(k, bench, simerr.Classify("harness.Result", err, simerr.BadProgram))
	}
	if rep != nil {
		if err := rep.CheckInternal(); err != nil {
			return nil, r.quarantine(k, bench, simerr.Classify("harness.Result", err, simerr.BadProgram))
		}
	}
	spans := r.Telemetry != nil && r.Telemetry.Dir() != ""
	artifacts := runstore.Artifacts(r.Out, bench+"-"+shortKey(k)+".", rep != nil, spans)
	if r.Out != "" {
		err := runstore.WriteArtifact(artifacts["metrics"], func(w io.Writer) error { return col.WriteJSON(w, res.Stats.Cycles) })
		if err == nil && rep != nil {
			err = runstore.WriteArtifact(artifacts["attrib"], rep.WriteJSON)
		}
		if err != nil {
			return nil, r.quarantine(k, bench, classifyIO("harness.out", err))
		}
	}
	if r.Archive != nil {
		man := runstore.New(bench, r.Scale, cfg, res)
		man.Tool = r.ArchiveTool
		if man.Tool == "" {
			man.Tool = "harness"
		}
		man.GitRev = r.ArchiveRev
		man.WallSeconds = simWall.Seconds()
		if r.Chaos.Enabled() {
			man.Seed = r.Chaos.Seed
		}
		if r.Telemetry != nil {
			man.RunID = r.Telemetry.ID
		}
		man.Artifacts = artifacts
		if rep != nil {
			man.Attrib = runstore.SummarizeAttrib(rep)
		}
		if err := r.Archive.Put(man); err != nil {
			return nil, r.quarantine(k, bench, classifyIO("harness.archive", err))
		}
	}
	if r.Ledger != nil {
		if err := r.Ledger.Append(k, res); err != nil {
			return nil, r.quarantine(k, bench, err)
		}
	}
	r.mu.Lock()
	r.results[k] = res
	if rep != nil {
		r.attribs[k] = rep
	}
	r.mu.Unlock()
	// With telemetry attached, cell completion is logged structurally (see
	// telemetry.Cell.Done) instead of through the ad-hoc progress line.
	if r.Verbose != nil && r.Telemetry == nil {
		r.vmu.Lock()
		r.completed++
		fmt.Fprintf(r.Verbose, "  [%3d] done %-8s %11d cycles\n", r.completed, bench, res.Stats.Cycles)
		r.vmu.Unlock()
	}
	return res, nil
}

// AttribReport returns the attribution report memoized for a simulation,
// running it (with attribution attached) if needed.
func (r *Runner) AttribReport(bench string, cfg sta.Config) (*attrib.Report, error) {
	k := r.key(bench, cfg)
	r.mu.Lock()
	rep := r.attribs[k]
	r.mu.Unlock()
	if rep != nil {
		return rep, nil
	}
	if !r.Attrib {
		return nil, fmt.Errorf("harness: attribution not enabled (set Runner.Attrib)")
	}
	if _, err := r.Result(bench, cfg); err != nil {
		return nil, err
	}
	r.mu.Lock()
	rep = r.attribs[k]
	r.mu.Unlock()
	if rep == nil {
		return nil, fmt.Errorf("harness: %s ran without attribution (sampled runs carry none)", bench)
	}
	return rep, nil
}

// batch runs all jobs concurrently, memoizing results. A failed cell does
// not abort the batch: the failure is quarantined, every other cell still
// runs (and is journaled, when a ledger is attached), and the batch
// returns a *SuiteError aggregating everything that went wrong.
func (r *Runner) batch(jobs []job) error {
	workers := r.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}
	if workers < 1 {
		workers = 1
	}
	jobc := make(chan job)
	var (
		wg       sync.WaitGroup
		fmu      sync.Mutex
		failures map[string]error
	)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobc {
				if _, err := r.Result(j.bench, j.cfg); err != nil {
					fmu.Lock()
					if failures == nil {
						failures = make(map[string]error)
					}
					failures[r.key(j.bench, j.cfg)] = err
					fmu.Unlock()
				}
			}
		}()
	}
	for _, j := range jobs {
		jobc <- j
	}
	close(jobc)
	wg.Wait()
	if len(failures) > 0 {
		e := &SuiteError{Total: len(jobs), Failures: failures}
		if r.Telemetry != nil {
			e.RunID = r.Telemetry.ID
		}
		if r.Ledger != nil {
			e.Ledger = r.Ledger.Path()
		}
		return e
	}
	return nil
}

// Experiment is one reproducible table or figure. Run returns the result
// as a structured table; render it with Table.String (aligned text) or
// Table.CSV.
type Experiment struct {
	ID    string // "table2", "fig8" ... "fig17", extensions
	Title string
	Run   func(r *Runner) (*stats.Table, error)
}

// All returns every experiment in paper order.
func All() []Experiment {
	return []Experiment{
		{ID: "table1", Title: "Table 1: program transformations modeled per kernel", Run: table1},
		{ID: "table2", Title: "Table 2: dynamic instruction counts and fraction parallelized", Run: table2},
		{ID: "table3", Title: "Table 3: per-TU resource scaling", Run: table3},
		{ID: "fig8", Title: "Figure 8: TLP vs ILP in the parallelized portions", Run: fig8},
		{ID: "fig9", Title: "Figure 9: whole-program speedup vs a single-TU baseline", Run: fig9},
		{ID: "fig10", Title: "Figure 10: wth-wp-wec speedup over same-TU-count orig", Run: fig10},
		{ID: "fig11", Title: "Figure 11: relative speedup of all configurations (8 TUs)", Run: fig11},
		{ID: "fig12", Title: "Figure 12: sensitivity to L1 associativity", Run: fig12},
		{ID: "fig13", Title: "Figure 13: sensitivity to L1 data cache size", Run: fig13},
		{ID: "fig14", Title: "Figure 14: sensitivity to L2 cache size", Run: fig14},
		{ID: "fig15", Title: "Figure 15: WEC size versus victim cache size", Run: fig15},
		{ID: "fig16", Title: "Figure 16: WEC versus next-line prefetch buffer size", Run: fig16},
		{ID: "fig17", Title: "Figure 17: L1 traffic increase and miss reduction", Run: fig17},
		{ID: "ablate", Title: "Ablation: the WEC's three roles in isolation (extension)", Run: ablation},
		{ID: "gain", Title: "Gain decomposition: fill attribution for WEC vs vc vs nlp vs wth-wp (extension)", Run: gainDecomp},
		{ID: "ext-latency", Title: "Extension (paper §7): memory-latency sensitivity of the WEC", Run: extLatency},
		{ID: "ext-block", Title: "Extension (paper §7): L1 block-size sensitivity of the WEC", Run: extBlockSize},
		{ID: "ext-bpred", Title: "Extension (paper §7): branch-prediction accuracy vs WEC benefit", Run: extBpred},
	}
}

// ByID finds an experiment.
func ByID(id string) (Experiment, error) {
	for _, e := range All() {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("harness: unknown experiment %q", id)
}
