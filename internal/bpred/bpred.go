// Package bpred implements the branch-prediction hardware of one thread
// unit: a direction predictor (bimodal 2-bit saturating counters by
// default) and a return-address stack. No branch target buffer is
// simulated: a direct branch or jump takes its target from the decoded
// immediate at fetch, which amounts to a perfect BTB, and JR is predicted
// by the RAS. The sizes match the sim-outorder defaults the paper's SIMCA
// simulator inherits (§4.1).
package bpred

import "fmt"

// Config sizes the predictor.
type Config struct {
	Dir            DirKind // direction scheme (default bimodal)
	BimodalEntries int     // direction table size (power of two)
	HistoryBits    int     // global history length for gshare/comb
	// BTBEntries and BTBAssoc record the paper's BTB geometry (§4.1:
	// 4-way, 1024 entries) in the configuration's identity, which memo
	// keys and archive addresses render whole with %+v, so neither the
	// fields nor their order may change. New validates them, but nothing
	// simulates a BTB.
	BTBEntries int
	BTBAssoc   int
	RASEntries int
}

// Default returns the configuration used throughout the paper.
func Default() Config {
	return Config{
		Dir:            DirBimodal,
		BimodalEntries: 2048,
		HistoryBits:    10,
		BTBEntries:     1024,
		BTBAssoc:       4,
		RASEntries:     8,
	}
}

// Predictor is one thread unit's branch predictor. Not safe for concurrent
// use.
type Predictor struct {
	dir    DirPredictor
	ras    []int
	rasTop int

	// Statistics.
	Lookups     uint64
	Mispredicts uint64
}

// New builds a predictor; sizes must be powers of two where indexed.
func New(cfg Config) (*Predictor, error) {
	if cfg.BimodalEntries <= 0 || cfg.BimodalEntries&(cfg.BimodalEntries-1) != 0 {
		return nil, fmt.Errorf("bpred: bimodal entries %d not a power of two", cfg.BimodalEntries)
	}
	if cfg.BTBAssoc <= 0 || cfg.BTBEntries%cfg.BTBAssoc != 0 {
		return nil, fmt.Errorf("bpred: BTB %d entries not divisible by assoc %d", cfg.BTBEntries, cfg.BTBAssoc)
	}
	sets := cfg.BTBEntries / cfg.BTBAssoc
	if sets&(sets-1) != 0 {
		return nil, fmt.Errorf("bpred: BTB set count %d not a power of two", sets)
	}
	if cfg.RASEntries <= 0 {
		return nil, fmt.Errorf("bpred: RAS entries must be positive")
	}
	hist := cfg.HistoryBits
	if hist == 0 {
		hist = 10
	}
	dir, err := NewDir(cfg.Dir, cfg.BimodalEntries, hist)
	if err != nil {
		return nil, err
	}
	return &Predictor{dir: dir, ras: make([]int, cfg.RASEntries)}, nil
}

// PredictDirection returns the predicted direction for the branch at pc.
func (p *Predictor) PredictDirection(pc int) bool {
	p.Lookups++
	return p.dir.Predict(pc)
}

// UpdateDirection trains the direction predictor with the resolved outcome
// and counts mispredictions against the given prediction.
func (p *Predictor) UpdateDirection(pc int, taken, predicted bool) {
	if taken != predicted {
		p.Mispredicts++
	}
	p.dir.Update(pc, taken)
}

// Warm trains the direction predictor with a functionally executed branch
// outcome without touching the lookup/misprediction statistics. The
// sampled-simulation fast-forward path uses it so the predictor enters each
// measurement window in the state a detailed run would have built, while
// reported accuracy still reflects detailed execution only.
func (p *Predictor) Warm(pc int, taken bool) {
	p.dir.Update(pc, taken)
}

// WarmCall/WarmRet mirror JAL/JR on the return-address stack during
// fast-forward, keeping call-depth alignment across measurement windows.
func (p *Predictor) WarmCall(ret int) { p.PushRAS(ret) }

// WarmRet pops the RAS (see WarmCall); an empty stack is a no-op.
func (p *Predictor) WarmRet() { p.PopRAS() }

// PushRAS records a return address on a call.
func (p *Predictor) PushRAS(ret int) {
	p.ras[p.rasTop%len(p.ras)] = ret
	p.rasTop++
}

// PopRAS predicts a return target; ok is false when the stack is empty.
func (p *Predictor) PopRAS() (int, bool) {
	if p.rasTop == 0 {
		return 0, false
	}
	p.rasTop--
	return p.ras[p.rasTop%len(p.ras)], true
}

// Accuracy returns the fraction of direction lookups that were correct.
func (p *Predictor) Accuracy() float64 {
	if p.Lookups == 0 {
		return 1
	}
	return 1 - float64(p.Mispredicts)/float64(p.Lookups)
}
