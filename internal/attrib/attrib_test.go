package attrib

import (
	"strings"
	"testing"
)

// reconcile asserts the report's internal accounting and returns it.
func reconcile(t *testing.T, a *Collector, cycles uint64) *Report {
	t.Helper()
	rep := a.Report(cycles)
	if err := rep.CheckInternal(); err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestUsefulLifecycle(t *testing.T) {
	a := NewCollector()
	a.OnFill(0, 0x1000, OriginWrongPath, 7, 10, StructSide)
	a.OnDemandAccess(0, 3, 0x1000, 50, false)
	a.OnSpecTouch(0, 0x1000, 50)
	rep := reconcile(t, a, 100)
	if rep.SpecFills.WrongPath != 1 || rep.Useful.WrongPath != 1 {
		t.Errorf("spec=%+v useful=%+v", rep.SpecFills, rep.Useful)
	}
	// A second touch of the same block must not double-count.
	a2 := NewCollector()
	a2.OnFill(0, 0x1000, OriginWrongPath, 7, 10, StructSide)
	a2.OnSpecTouch(0, 0x1000, 50)
	a2.OnSpecTouch(0, 0x1000, 60)
	if rep := reconcile(t, a2, 100); rep.Useful.WrongPath != 1 {
		t.Errorf("double-counted touch: %+v", rep.Useful)
	}
}

func TestUselessAndResident(t *testing.T) {
	a := NewCollector()
	a.OnFill(0, 0x1000, OriginWrongThread, 7, 10, StructSide)
	a.OnFill(0, 0x2000, OriginPrefetch, 8, 20, StructSide)
	a.OnEvict(0, 0x1000, OriginDemand, -1, 500) // evicted untouched
	rep := reconcile(t, a, 1000)
	if rep.Useless.WrongThread != 1 {
		t.Errorf("useless = %+v", rep.Useless)
	}
	if rep.Resident.Prefetch != 1 { // still in the cache at Finish
		t.Errorf("resident = %+v", rep.Resident)
	}
	// An untouched spec eviction is never pollution, whatever evicted it.
	if rep.PollutionEvictions.Total() != 0 {
		t.Errorf("pollution evictions = %+v", rep.PollutionEvictions)
	}
}

func TestLate(t *testing.T) {
	a := NewCollector()
	a.OnLateFill(OriginPrefetch, 7)
	a.OnFill(0, 0x1000, OriginDemand, 3, 10, StructL1)
	rep := reconcile(t, a, 100)
	if rep.Late.Prefetch != 1 || rep.DemandFills != 1 || rep.SpecFills.Total() != 0 {
		t.Errorf("late=%+v demand=%d spec=%+v", rep.Late, rep.DemandFills, rep.SpecFills)
	}
	// Late merges into a demand-allocated entry are impossible; guard anyway.
	a.OnLateFill(OriginDemand, 3)
	if rep := a.Report(100); rep.Late.Total() != 1 {
		t.Errorf("demand late counted: %+v", rep.Late)
	}
}

func TestPollutionWindow(t *testing.T) {
	mk := func() *Collector {
		a := NewCollector()
		a.window = 100
		a.OnFill(0, 0x1000, OriginDemand, 3, 10, StructL1) // correct-path block
		a.OnFill(0, 0x2000, OriginWrongPath, 7, 50, StructL1)
		a.OnEvict(0, 0x1000, OriginWrongPath, 7, 50) // displaced by speculation
		return a
	}
	// Re-miss inside the window is pollution, charged to the wrong PC.
	a := mk()
	a.OnDemandAccess(0, 3, 0x1000, 120, true)
	rep := reconcile(t, a, 200)
	if rep.Polluting.WrongPath != 1 || rep.PollutionEvictions.WrongPath != 1 {
		t.Errorf("polluting=%+v evicts=%+v", rep.Polluting, rep.PollutionEvictions)
	}
	found := false
	for _, p := range rep.TopPCs {
		if p.PC == 7 && p.Polluting == 1 {
			found = true
		}
	}
	if !found {
		t.Errorf("pollution not charged to PC 7: %+v", rep.TopPCs)
	}
	// Re-miss outside the window is not.
	a = mk()
	a.OnDemandAccess(0, 3, 0x1000, 500, true)
	if rep := reconcile(t, a, 600); rep.Polluting.Total() != 0 {
		t.Errorf("stale re-miss counted: %+v", rep.Polluting)
	}
	// A re-fill of the displaced block clears the shadow entry.
	a = mk()
	a.OnFill(0, 0x1000, OriginDemand, 3, 60, StructL1)
	a.OnEvict(0, 0x1000, OriginDemand, -1, 70)
	a.OnDemandAccess(0, 3, 0x1000, 80, true)
	if rep := reconcile(t, a, 200); rep.Polluting.Total() != 0 {
		t.Errorf("refetched block still counted polluting: %+v", rep.Polluting)
	}
}

func TestVictimCapturePreservesProvenance(t *testing.T) {
	// wrong fill -> side, promoted to L1 untouched is impossible (promotion
	// implies a demand touch); instead: wrong fill into L1 (polluting
	// config), captured as a victim, then touched in the side buffer.
	a := NewCollector()
	a.OnFill(0, 0x1000, OriginWrongThread, 7, 10, StructL1)
	a.OnVictimCapture(0, 0x1000, 50)
	a.OnSpecTouch(0, 0x1000, 90)
	rep := reconcile(t, a, 100)
	if rep.Useful.WrongThread != 1 {
		t.Errorf("provenance lost across victim capture: %+v", rep.Useful)
	}
	if rep.VictimInserts != 1 {
		t.Errorf("victim inserts = %d", rep.VictimInserts)
	}
	// A capture of an untracked block creates a touched victim record.
	a2 := NewCollector()
	a2.OnVictimCapture(0, 0x3000, 10)
	a2.OnEvict(0, 0x3000, OriginWrongPath, 7, 20)
	rep2 := reconcile(t, a2, 100)
	if rep2.Useless.Total() != 0 {
		t.Errorf("victim eviction counted useless: %+v", rep2.Useless)
	}
	if rep2.PollutionEvictions.WrongPath != 1 {
		t.Errorf("victim displaced by speculation not shadowed: %+v", rep2.PollutionEvictions)
	}
}

func TestVictimHit(t *testing.T) {
	a := NewCollector()
	a.OnVictimCapture(0, 0x1000, 10)
	a.OnVictimHit(0, 0x1000, 50)
	rep := reconcile(t, a, 100)
	if rep.VictimHits != 1 || rep.Useful.Total() != 0 {
		t.Errorf("victimHits=%d useful=%+v", rep.VictimHits, rep.Useful)
	}
}

func TestPerPCProfile(t *testing.T) {
	a := NewCollector()
	a.topN = 2
	for pc := 0; pc < 5; pc++ {
		for i := 0; i <= pc; i++ {
			a.OnDemandAccess(0, pc, uint64(0x1000*pc), 10, false)
		}
	}
	rep := reconcile(t, a, 100)
	if len(rep.TopPCs) != 2 {
		t.Fatalf("TopN not applied: %d rows", len(rep.TopPCs))
	}
	if rep.TopPCs[0].PC != 4 || rep.TopPCs[1].PC != 3 {
		t.Errorf("top PCs not sorted by traffic: %+v", rep.TopPCs)
	}
	if rep.TopPCs[0].Accesses != 5 {
		t.Errorf("accesses = %d", rep.TopPCs[0].Accesses)
	}
}

func TestNilCollectorHooksAreNoOps(t *testing.T) {
	var a *Collector
	a.OnDemandAccess(0, 1, 0x1000, 10, true)
	a.OnWrongIssue(1)
	a.OnFill(0, 0x1000, OriginWrongPath, 1, 10, StructSide)
	a.OnLateFill(OriginPrefetch, 1)
	a.OnVictimCapture(0, 0x1000, 10)
	a.OnSpecTouch(0, 0x1000, 10)
	a.OnVictimHit(0, 0x1000, 10)
	a.OnPromote(0, 0x1000)
	a.OnEvict(0, 0x1000, OriginDemand, -1, 10)
	a.Finish()
	a.RegisterInto(nil)
	if rep := a.Report(100); rep != nil {
		t.Errorf("nil collector produced a report: %+v", rep)
	}
}

func TestShadowTableBound(t *testing.T) {
	a := NewCollector()
	a.window = 1 << 60 // nothing expires: force the capacity path
	for i := 0; i < maxShadow+10; i++ {
		b := uint64(i) * 64
		a.OnFill(0, b, OriginDemand, 3, 10, StructL1)
		a.OnEvict(0, b, OriginWrongPath, 7, 20)
	}
	rep := reconcile(t, a, 100)
	if rep.ShadowDropped != 10 {
		t.Errorf("shadow dropped = %d, want 10", rep.ShadowDropped)
	}
}

func TestCheckInternalCatchesImbalance(t *testing.T) {
	a := NewCollector()
	a.OnFill(0, 0x1000, OriginWrongPath, 7, 10, StructSide)
	rep := a.Report(100)
	rep.Resident.WrongPath = 0 // break the partition by hand
	if err := rep.CheckInternal(); err == nil {
		t.Error("unbalanced report passed CheckInternal")
	}
	rep2 := NewCollector().Report(100)
	rep2.Refills = 1
	if err := rep2.CheckInternal(); err == nil {
		t.Error("refill diagnostic not reported")
	}
}

func TestWriteTextSummary(t *testing.T) {
	a := NewCollector()
	a.OnFill(0, 0x1000, OriginWrongPath, 7, 10, StructSide)
	a.OnSpecTouch(0, 0x1000, 50)
	a.OnDemandAccess(0, 7, 0x2000, 60, false)
	var sb strings.Builder
	rep := reconcile(t, a, 100)
	if err := rep.WriteText(&sb, func(pc int) string { return "lbl" }); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"wrong-path", "useful", "top load PCs", "lbl"} {
		if !strings.Contains(out, want) {
			t.Errorf("summary missing %q:\n%s", want, out)
		}
	}
}
