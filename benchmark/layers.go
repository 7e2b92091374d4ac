package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/asm"
	"repro/internal/bpred"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/interp"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/memimg"
	"repro/internal/runstore"
	"repro/internal/sta"
	"repro/internal/workload"
)

// layerMetrics runs the per-layer probes. Each drives one layer through
// its public API on the scale-1 programs, checks what it computed, and adds
// its metrics. The probes are the same on every workload; the seed only
// reaches the sampling probe's confidence intervals.
func layerMetrics(tr *tracer, seed uint64, workdir string, g *golden, m *metrics) error {
	end := tr.begin("workload.Build")
	progs, err := build(1, allBenches())
	end()
	if err != nil {
		return err
	}
	refs := map[string]*interp.Result{}
	for name, p := range progs {
		if refs[name], err = interp.Run(p); err != nil {
			return err
		}
	}
	wec := config.Main(8)
	if err := config.Apply(config.WTHWPWEC, &wec); err != nil {
		return err
	}
	mcf, err := staProbe(tr, progs["mcf"], refs["mcf"], m)
	if err != nil {
		return fmt.Errorf("sta probe: %w", err)
	}
	if err := coreProbe(tr, progs, refs, m); err != nil {
		return fmt.Errorf("core probe: %w", err)
	}
	if err := memProbe(tr, progs["mcf"], wec.Mem, g, m); err != nil {
		return fmt.Errorf("mem probe: %w", err)
	}
	if err := interpProbe(tr, progs, refs, wec.Mem, m); err != nil {
		return fmt.Errorf("interp probe: %w", err)
	}
	if err := persistProbe(tr, workdir, mcf, m); err != nil {
		return fmt.Errorf("persistence probe: %w", err)
	}
	if err := sampleProbe(tr, seed, progs, m); err != nil {
		return fmt.Errorf("sampling probe: %w", err)
	}
	return nil
}

// staProbe times whole machines on mcf wth-wp-wec: serial stepping per
// simulated cycle at 8, 16 and 32 TUs, the default (auto) worker choice
// against serial, construction, allocations, and sampling against detailed
// simulation. It returns the serial 8-TU result.
func staProbe(tr *tracer, prog *isa.Program, ref *interp.Result, m *metrics) (*sta.Result, error) {
	runOne := func(tus int, serial bool, smp bool) (*sta.Result, float64, error) {
		cfg := config.Main(tus)
		if err := config.Apply(config.WTHWPWEC, &cfg); err != nil {
			return nil, 0, err
		}
		label := fmt.Sprintf("%dtu serial=%v sampled=%v", tus, serial, smp)
		end := tr.begin("sta.New " + label)
		mc, err := sta.New(cfg, prog)
		end()
		if err != nil {
			return nil, 0, err
		}
		mc.DisableParallel = serial
		if smp {
			mc.Sample = surveyRegime(1)
		}
		end = tr.begin("Machine.Run " + label)
		start := time.Now()
		res, err := mc.Run()
		wall := time.Since(start).Seconds()
		end()
		if err != nil {
			return nil, 0, err
		}
		if res.MemCheck != ref.MemCheck {
			return nil, 0, fmt.Errorf("%s: memory checksum %#x, interpreter %#x", label, res.MemCheck, ref.MemCheck)
		}
		return res, wall, nil
	}
	var serial8 *sta.Result
	var serial8Wall float64
	for _, tus := range machineTUs {
		ser, serWall, err := runOne(tus, true, false)
		if err != nil {
			return nil, err
		}
		auto, autoWall, err := runOne(tus, false, false)
		if err != nil {
			return nil, err
		}
		if auto.Stats.Cycles != ser.Stats.Cycles {
			return nil, fmt.Errorf("%d TUs: parallel stepping ran %d cycles, serial %d", tus, auto.Stats.Cycles, ser.Stats.Cycles)
		}
		m.add(fmt.Sprintf("sta.ns_per_cycle.%dtu", tus), serWall*1e9/float64(ser.Stats.Cycles), "ns")
		m.add(fmt.Sprintf("sta.auto_over_serial.%dtu", tus), autoWall/serWall, "ratio")
		if tus == 8 {
			serial8, serial8Wall = ser, serWall
		}
	}

	cfg := config.Main(8)
	if err := config.Apply(config.WTHWPWEC, &cfg); err != nil {
		return nil, err
	}
	const news = 50
	newTimes := make([]float64, news)
	end := tr.begin("sta.New x50")
	for i := range newTimes {
		start := time.Now()
		if _, err := sta.New(cfg, prog); err != nil {
			end()
			return nil, err
		}
		newTimes[i] = time.Since(start).Seconds()
	}
	end()
	m.add("sta.new_us", median(newTimes)*1e6, "us")

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, _, err := runOne(8, true, false); err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&after)
	m.add("sta.allocs_per_run.8tu", float64(after.Mallocs-before.Mallocs), "count")

	_, smpWall, err := runOne(8, true, true)
	if err != nil {
		return nil, err
	}
	m.add("sta.sampled_over_detailed.8tu", smpWall/serial8Wall, "ratio")
	return serial8, nil
}

// stubMem is a fixed-latency data memory for the core probe: every load
// is served at hit latency from a functional image, two ports per cycle.
type stubMem struct {
	img  *memimg.Image
	used int
}

const stubPorts = 2

func (d *stubMem) TryLoad(cycle uint64, addr uint64, wrong bool, pc int) core.LoadResult {
	if d.used >= stubPorts {
		return core.LoadResult{Status: core.LoadNoPort}
	}
	d.used++
	return core.LoadResult{Status: core.LoadForwarded, Value: d.img.ReadWord(addr)}
}

func (d *stubMem) WrongLoad(cycle uint64, addr uint64, pc int) bool {
	if d.used >= stubPorts {
		return false
	}
	d.used++
	return true
}

func (d *stubMem) CommitStore(cycle uint64, addr uint64, val int64, target bool, pc int) {
	d.img.WriteWord(addr, val)
}

func (d *stubMem) LoadsAllowed() bool { return true }

// haltEnv ignores the superthreaded control events a SeqLoops core emits,
// except HALT.
type haltEnv struct{ halted bool }

func (e *haltEnv) OnBegin(uint64, int64) {}
func (e *haltEnv) OnFork(uint64, int)    {}
func (e *haltEnv) OnTsagd(uint64)        {}
func (e *haltEnv) OnTsa(uint64, uint64)  {}
func (e *haltEnv) OnThend(uint64)        {}
func (e *haltEnv) OnAbort(uint64, int)   {}
func (e *haltEnv) OnHalt(uint64)         { e.halted = true }

// coreProbe runs each program on one out-of-order core with SeqLoops,
// against the fixed-latency stub; the hierarchy serves instruction fetch.
func coreProbe(tr *tracer, progs map[string]*isa.Program, refs map[string]*interp.Result, m *metrics) error {
	var wall float64
	var cycles, insts uint64
	for _, w := range workload.All() {
		name, p := w.Short, progs[w.Short]
		h, err := mem.NewHierarchy(1, mem.DefaultConfig())
		if err != nil {
			return err
		}
		img := memimg.New()
		asm.LoadData(p, img)
		d := &stubMem{img: img}
		env := &haltEnv{}
		cc := core.DefaultConfig()
		cc.SeqLoops = true
		c, err := core.New(cc, p, h.IUnit(0), d, env)
		if err != nil {
			return err
		}
		end := tr.begin("core.Step " + name)
		start := time.Now()
		c.StartMain()
		var cyc uint64
		for ; !env.halted; cyc++ {
			if cyc > 100_000_000 {
				end()
				return fmt.Errorf("%s did not halt", name)
			}
			h.BeginCycle(cyc)
			d.used = 0
			c.Step(cyc)
			h.Tick(cyc)
		}
		wall += time.Since(start).Seconds()
		end()
		if got, want := img.Checksum(), refs[name].MemCheck; got != want {
			return fmt.Errorf("%s: memory checksum %#x, interpreter %#x", name, got, want)
		}
		cycles += cyc
		insts += c.Stats.Commits
	}
	m.add("core.ns_per_cycle", wall*1e9/float64(cycles), "ns")
	m.add("core.ns_per_inst", wall*1e9/float64(insts), "ns")
	return nil
}

type access struct {
	addr  uint64
	store bool
}

// memProbe replays mcf's data-address stream through one data unit of
// the given memory configuration: demand accesses through DUnit.Access at
// up to the port limit per cycle, then the same stream through the
// functional warming entry points.
func memProbe(tr *tracer, prog *isa.Program, cfg mem.Config, g *golden, m *metrics) error {
	var stream []access
	img := memimg.New()
	asm.LoadData(prog, img)
	var ir [isa.NumIntRegs]int64
	var fr [isa.NumFPRegs]float64
	e := interp.Engine{Prog: prog, Mem: img, Int: &ir, FP: &fr, Hooks: interp.Hooks{
		Load:  func(a uint64) { stream = append(stream, access{addr: a}) },
		Store: func(a uint64) { stream = append(stream, access{addr: a, store: true}) },
	}}
	e.Reset(prog.Entry)
	if _, err := e.StepN(interp.MaxInsts); err != nil {
		return err
	}
	if !e.Halted {
		return errors.New("mcf did not halt while capturing its address stream")
	}

	h, err := mem.NewHierarchy(1, cfg)
	if err != nil {
		return err
	}
	du := h.DUnit(0)
	end := tr.begin("DUnit.Access replay")
	start := time.Now()
	var cyc uint64
	for i := 0; i < len(stream); cyc++ {
		h.BeginCycle(cyc)
		for ; i < len(stream) && du.CanAccept(); i++ {
			kind := mem.Load
			if stream[i].store {
				kind = mem.Store
			}
			du.Access(cyc, stream[i].addr, kind, mem.SrcDemand, -1).Release()
		}
		h.Tick(cyc)
	}
	wall := time.Since(start).Seconds()
	end()

	hw, err := mem.NewHierarchy(1, cfg)
	if err != nil {
		return err
	}
	dw := hw.DUnit(0)
	end = tr.begin("DUnit.Warm replay")
	start = time.Now()
	for _, a := range stream {
		if a.store {
			dw.WarmStore(a.addr)
		} else {
			dw.WarmLoad(a.addr)
		}
	}
	warm := time.Since(start).Seconds()
	end()

	n := float64(len(stream))
	m.add("mem.ns_per_access", wall*1e9/n, "ns")
	m.add("mem.warm_ns_per_access", warm*1e9/n, "ns")
	m.add("mem.l1d_miss_frac", float64(du.Misses)/float64(du.Accesses), "ratio")
	return g.memMisses(du.Misses)
}

// interpProbe measures the golden model (interp.Run) and the fast-forward
// engine with the warming hooks a sampled run attaches, over every program.
func interpProbe(tr *tracer, progs map[string]*isa.Program, refs map[string]*interp.Result, cfg mem.Config, m *metrics) error {
	var runWall, ffWall float64
	var insts, ffInsts int64
	for _, w := range workload.All() {
		name, p := w.Short, progs[w.Short]
		end := tr.begin("interp.Run " + name)
		start := time.Now()
		ref, err := interp.Run(p)
		runWall += time.Since(start).Seconds()
		end()
		if err != nil {
			return err
		}
		insts += ref.Insts

		h, err := mem.NewHierarchy(1, cfg)
		if err != nil {
			return err
		}
		bp, err := bpred.New(bpred.Default())
		if err != nil {
			return err
		}
		du, iu := h.DUnit(0), h.IUnit(0)
		img := memimg.New()
		asm.LoadData(p, img)
		var ir [isa.NumIntRegs]int64
		var fr [isa.NumFPRegs]float64
		e := interp.Engine{Prog: p, Mem: img, Int: &ir, FP: &fr, BlockPCs: max(cfg.L1IBlock/16, 1),
			Hooks: interp.Hooks{
				Load:   du.WarmLoad,
				Store:  func(a uint64) { h.WarmSequentialStore(0, a) },
				Branch: bp.Warm,
				Call:   bp.WarmCall,
				Ret:    bp.WarmRet,
				Block:  iu.WarmFetch,
			}}
		e.Reset(p.Entry)
		end = tr.begin("Engine.StepN " + name)
		start = time.Now()
		n, err := e.StepN(interp.MaxInsts)
		ffWall += time.Since(start).Seconds()
		end()
		if err != nil {
			return err
		}
		if !e.Halted || img.Checksum() != refs[name].MemCheck {
			return fmt.Errorf("%s: fast-forward engine diverged from interp.Run", name)
		}
		ffInsts += n
	}
	m.add("interp.mips", float64(insts)/runWall/1e6, "MIPS")
	m.add("interp.ff_mips", float64(ffInsts)/ffWall/1e6, "MIPS")
	return nil
}

// persistCells is how many manifests and ledger entries the persistence
// probe writes: enough for a 95th percentile.
const persistCells = 64

// persistProbe archives and journals one result under distinct cell keys,
// then reopens both stores.
func persistProbe(tr *tracer, workdir string, res *sta.Result, m *metrics) error {
	dir, err := os.MkdirTemp(workdir, "persist-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	archive, ledgerPath := filepath.Join(dir, "archive"), filepath.Join(dir, "ledger.jsonl")
	st, err := runstore.Open(archive)
	if err != nil {
		return err
	}
	led, _, err := harness.OpenLedger(ledgerPath, 1)
	if err != nil {
		st.Close()
		return err
	}
	puts := make([]float64, persistCells)
	appends := make([]float64, persistCells)
	for i := range puts {
		cfg := config.Main(8)
		cfg.Mem.SideEntries = i + 1
		if err = config.Apply(config.WTHWPWEC, &cfg); err != nil {
			break
		}
		man := runstore.New("mcf", 1, cfg, res)
		end := tr.begin("Store.Put")
		start := time.Now()
		err = st.Put(man)
		puts[i] = time.Since(start).Seconds() * 1e3
		end()
		if err != nil {
			break
		}
		end = tr.begin("Ledger.Append")
		start = time.Now()
		err = led.Append(man.MemoKey, res)
		appends[i] = time.Since(start).Seconds() * 1e3
		end()
		if err != nil {
			break
		}
	}
	if err = errors.Join(err, led.Close(), st.Close()); err != nil {
		return err
	}
	m.add("runstore.put_ms.p50", quantile(puts, 0.5), "ms")
	m.add("runstore.put_ms.p95", quantile(puts, 0.95), "ms")
	m.add("ledger.append_ms.p50", quantile(appends, 0.5), "ms")
	m.add("ledger.append_ms.p95", quantile(appends, 0.95), "ms")

	const opens = 5
	openSt, openLed := make([]float64, opens), make([]float64, opens)
	for i := 0; i < opens; i++ {
		end := tr.begin("runstore.Open")
		start := time.Now()
		st, err := runstore.Open(archive)
		openSt[i] = time.Since(start).Seconds() * 1e3
		end()
		if err != nil {
			return err
		}
		n := st.Len()
		if err := st.Close(); err != nil {
			return err
		}
		end = tr.begin("harness.OpenLedger")
		start = time.Now()
		led, prior, err := harness.OpenLedger(ledgerPath, 1)
		openLed[i] = time.Since(start).Seconds() * 1e3
		end()
		if err != nil {
			return err
		}
		if err := led.Close(); err != nil {
			return err
		}
		if n != persistCells || len(prior) != persistCells {
			return fmt.Errorf("reopened stores hold %d manifests and %d ledger entries, want %d", n, len(prior), persistCells)
		}
	}
	m.add("runstore.open_ms", median(openSt), "ms")
	m.add("ledger.open_ms", median(openLed), "ms")
	return nil
}

// sampleProbe reports the accuracy of the survey regime's estimates on the
// Figure 11 cells (see sampledAccuracy).
func sampleProbe(tr *tracer, seed uint64, progs map[string]*isa.Program, m *metrics) error {
	end := tr.begin("sampled vs detailed fig11")
	errPP, cover, err := sampledAccuracy(newRunner(progs, surveyRegime(seed), nil), progs)
	end()
	if err != nil {
		return err
	}
	m.add("sample.speedup_err_pp", errPP, "pp")
	m.add("sample.ci_cover_frac", cover, "ratio")
	return nil
}
