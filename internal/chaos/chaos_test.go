package chaos

import (
	"testing"
	"time"
)

// drawPattern records the first n decisions of one point.
func drawPattern(in *Injector, p Point, n int) []bool {
	out := make([]bool, n)
	for i := range out {
		out[i] = in.Hit(p)
	}
	return out
}

func TestNilInjectorNeverFires(t *testing.T) {
	var in *Injector
	for p := Point(0); p < numPoints; p++ {
		if in.Hit(p) {
			t.Fatalf("nil injector fired %v", p)
		}
	}
	in.Panic(PointMachineStep) // must not panic
	in.SlowCycle()
}

func TestZeroConfigNeverFires(t *testing.T) {
	in := New(Config{Seed: 7}, "mcf|cfg")
	for i := 0; i < 10000; i++ {
		for p := Point(0); p < numPoints; p++ {
			if in.Hit(p) {
				t.Fatalf("zero-probability point %v fired", p)
			}
		}
	}
	if (Config{}).Enabled() {
		t.Error("zero config reports Enabled")
	}
	if !(Config{Livelock: 0.1}).Enabled() {
		t.Error("non-zero config reports disabled")
	}
}

func TestDeterminismAcrossInstances(t *testing.T) {
	cfg := Config{Seed: 42, MachinePanic: 0.01, CorePanic: 0.02, Livelock: 0.005, SlowCycle: 0.03}
	a := New(cfg, "gzip|orig")
	b := New(cfg, "gzip|orig")
	for p := Point(0); p < numPoints; p++ {
		pa := drawPattern(a, p, 5000)
		pb := drawPattern(b, p, 5000)
		for i := range pa {
			if pa[i] != pb[i] {
				t.Fatalf("point %v draw %d differs between identical injectors", p, i)
			}
		}
	}
}

func TestSaltSeparatesStreams(t *testing.T) {
	cfg := Config{Seed: 42, MachinePanic: 0.5}
	a := drawPattern(New(cfg, "mcf|a"), PointMachineStep, 64)
	b := drawPattern(New(cfg, "mcf|b"), PointMachineStep, 64)
	same := true
	for i := range a {
		if a[i] != b[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different salts produced identical draw streams")
	}
}

func TestProbabilityRoughlyHonored(t *testing.T) {
	cfg := Config{Seed: 1, Livelock: 0.25}
	in := New(cfg, "x")
	n, hits := 100000, 0
	for i := 0; i < n; i++ {
		if in.Hit(PointLivelock) {
			hits++
		}
	}
	got := float64(hits) / float64(n)
	if got < 0.23 || got > 0.27 {
		t.Errorf("hit rate %.4f for probability 0.25", got)
	}
}

func TestProbabilityOneAlwaysFires(t *testing.T) {
	in := New(Config{Seed: 3, Livelock: 1}, "x")
	for i := 0; i < 100; i++ {
		if !in.Hit(PointLivelock) {
			t.Fatal("probability-1 point failed to fire")
		}
	}
}

func TestPanicRaisesInjected(t *testing.T) {
	in := New(Config{Seed: 9, CorePanic: 1}, "mesa|wec")
	defer func() {
		r := recover()
		inj, ok := r.(Injected)
		if !ok {
			t.Fatalf("recovered %T, want Injected", r)
		}
		if inj.Point != PointCoreStep || inj.Salt != "mesa|wec" {
			t.Errorf("injected = %+v", inj)
		}
	}()
	in.Panic(PointCoreStep)
	t.Fatal("Panic did not panic")
}

func TestSlowCycleSleeps(t *testing.T) {
	in := New(Config{Seed: 5, SlowCycle: 1, SlowCycleSleep: 2 * time.Millisecond}, "x")
	start := time.Now()
	in.SlowCycle()
	if time.Since(start) < time.Millisecond {
		t.Error("SlowCycle did not sleep")
	}
}

func TestPointNames(t *testing.T) {
	if PointLivelock.String() != "livelock" || Point(200).String() != "point(200)" {
		t.Error("point naming broken")
	}
}
