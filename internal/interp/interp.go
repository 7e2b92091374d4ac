// Package interp provides a functional (untimed) reference interpreter for
// the simulator ISA, including sequential semantics for the superthreaded
// thread-pipelining primitives. Every timing configuration of the cycle
// simulator must produce the same architectural result as this interpreter;
// the integration tests enforce that invariant, which is what guarantees
// wrong-path and wrong-thread execution change only timing, never results.
//
// Sequential semantics of the STA primitives:
//
//	BEGIN  - enters a parallel region (no functional effect)
//	FORK t - records t as the start of the next iteration
//	TSAGD  - no effect
//	TSA    - no effect (address announcement only)
//	TST    - an ordinary store
//	THEND  - jumps to the most recent FORK target (next iteration)
//	ABORT  - ends the loop; falls through to the next instruction
package interp

import (
	"fmt"

	"repro/internal/asm"
	"repro/internal/isa"
	"repro/internal/memimg"
)

// Result is the architectural outcome of a program run. Mem is the final
// memory: it maps the program's data pages in place and holds a private
// copy only of each page the run wrote.
type Result struct {
	IntRegs  [isa.NumIntRegs]int64
	FPRegs   [isa.NumFPRegs]float64
	Mem      *memimg.Image
	Insts    int64 // dynamic instruction count
	Loads    int64
	Stores   int64
	Branches int64
	Taken    int64
	ParInsts int64 // dynamic instructions inside parallel regions
	Forks    int64
	MemCheck uint64 // memory checksum
}

// MaxInsts guards against runaway programs.
const MaxInsts = 2_000_000_000

// Run executes p to completion and returns the architectural result.
func Run(p *isa.Program) (*Result, error) {
	return RunLimit(p, MaxInsts)
}

// RunLimit is Run with an explicit dynamic-instruction bound; exceeding it
// returns an error (runaway detection). It drives the same Engine the
// sampled-simulation fast-forward path uses, so the golden model and the
// fast-forward executor share one set of semantics by construction.
func RunLimit(p *isa.Program, maxInsts int64) (*Result, error) {
	img := memimg.New()
	asm.LoadData(p, img)
	r := &Result{Mem: img}
	e := Engine{Prog: p, Mem: img, Int: &r.IntRegs, FP: &r.FPRegs}
	e.Reset(p.Entry)
	_, err := e.StepN(maxInsts)
	r.Insts = e.Counts.Insts
	r.Loads = e.Counts.Loads
	r.Stores = e.Counts.Stores
	r.Branches = e.Counts.Branches
	r.Taken = e.Counts.Taken
	r.ParInsts = e.Counts.ParInsts
	r.Forks = e.Counts.Forks
	if err != nil {
		return nil, err
	}
	if !e.Halted {
		return nil, fmt.Errorf("interp: exceeded %d instructions (runaway program?)", maxInsts)
	}
	r.MemCheck = img.Checksum()
	return r, nil
}
