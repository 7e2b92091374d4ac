package bpred

import (
	"math/rand"
	"testing"
)

func TestNewValidation(t *testing.T) {
	bad := []Config{
		{BimodalEntries: 0, BTBEntries: 16, BTBAssoc: 4, RASEntries: 8},
		{BimodalEntries: 100, BTBEntries: 16, BTBAssoc: 4, RASEntries: 8},
		{BimodalEntries: 128, BTBEntries: 15, BTBAssoc: 4, RASEntries: 8},
		{BimodalEntries: 128, BTBEntries: 24, BTBAssoc: 4, RASEntries: 8}, // 6 sets
		{BimodalEntries: 128, BTBEntries: 16, BTBAssoc: 4, RASEntries: 0},
	}
	for _, c := range bad {
		if _, err := New(c); err == nil {
			t.Errorf("config %+v accepted", c)
		}
	}
	if _, err := New(Default()); err != nil {
		t.Fatal(err)
	}
}

func TestBimodalLearnsBias(t *testing.T) {
	p := mustNew(t, Default())
	pc := 100
	for i := 0; i < 10; i++ {
		pred := p.PredictDirection(pc)
		p.UpdateDirection(pc, true, pred)
	}
	if !p.PredictDirection(pc) {
		t.Error("always-taken branch predicted not-taken after training")
	}
	for i := 0; i < 10; i++ {
		pred := p.PredictDirection(pc)
		p.UpdateDirection(pc, false, pred)
	}
	if p.PredictDirection(pc) {
		t.Error("always-not-taken branch predicted taken after training")
	}
}

func TestBimodalHysteresis(t *testing.T) {
	p := mustNew(t, Default())
	pc := 4
	// Saturate taken.
	for i := 0; i < 4; i++ {
		p.UpdateDirection(pc, true, true)
	}
	// One not-taken must not flip the prediction (2-bit hysteresis).
	p.UpdateDirection(pc, false, true)
	if !p.PredictDirection(pc) {
		t.Error("single anomaly flipped a saturated 2-bit counter")
	}
}

func TestMispredictCounting(t *testing.T) {
	p := mustNew(t, Default())
	p.UpdateDirection(0, true, false)
	p.UpdateDirection(0, true, true)
	if p.Mispredicts != 1 {
		t.Errorf("mispredicts = %d, want 1", p.Mispredicts)
	}
}

func TestAccuracyOnBiasedStream(t *testing.T) {
	p := mustNew(t, Default())
	rng := rand.New(rand.NewSource(42))
	// 90% taken branch at one PC: bimodal should approach 90% accuracy.
	correct, total := 0, 0
	for i := 0; i < 10000; i++ {
		taken := rng.Float64() < 0.9
		pred := p.PredictDirection(64)
		if pred == taken {
			correct++
		}
		total++
		p.UpdateDirection(64, taken, pred)
	}
	acc := float64(correct) / float64(total)
	if acc < 0.8 {
		t.Errorf("bimodal accuracy %.3f too low on 90%% biased stream", acc)
	}
}

func TestRAS(t *testing.T) {
	p := mustNew(t, Default())
	if _, ok := p.PopRAS(); ok {
		t.Fatal("empty RAS popped")
	}
	p.PushRAS(10)
	p.PushRAS(20)
	if v, ok := p.PopRAS(); !ok || v != 20 {
		t.Errorf("pop = %d,%v", v, ok)
	}
	if v, ok := p.PopRAS(); !ok || v != 10 {
		t.Errorf("pop = %d,%v", v, ok)
	}
}

func TestRASWraparound(t *testing.T) {
	p := mustNew(t, Config{BimodalEntries: 16, BTBEntries: 4, BTBAssoc: 4, RASEntries: 2})
	p.PushRAS(1)
	p.PushRAS(2)
	p.PushRAS(3) // overwrites 1
	if v, _ := p.PopRAS(); v != 3 {
		t.Errorf("pop = %d, want 3", v)
	}
	if v, _ := p.PopRAS(); v != 2 {
		t.Errorf("pop = %d, want 2", v)
	}
}

func TestPCAliasing(t *testing.T) {
	// Two PCs that alias in a tiny bimodal table share a counter; ensure
	// indexing masks rather than overflowing.
	p := mustNew(t, Config{BimodalEntries: 2, BTBEntries: 4, BTBAssoc: 4, RASEntries: 2})
	for i := 0; i < 5; i++ {
		p.UpdateDirection(0, true, p.PredictDirection(0))
	}
	if !p.PredictDirection(2) { // aliases with pc 0
		t.Error("aliased PC should share the trained counter")
	}
}

func TestAccuracyMetric(t *testing.T) {
	p := mustNew(t, Default())
	if p.Accuracy() != 1 {
		t.Error("accuracy of untouched predictor should be 1")
	}
	pred := p.PredictDirection(0)
	p.UpdateDirection(0, !pred, pred)
	if p.Accuracy() >= 1 {
		t.Error("accuracy did not drop after a miss")
	}
}

// mustNew builds a predictor from a known-valid configuration, failing the
// test on a constructor error (the panicking MustNew was removed when
// config validation moved to returned errors).
func mustNew(t *testing.T, cfg Config) *Predictor {
	t.Helper()
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return p
}
