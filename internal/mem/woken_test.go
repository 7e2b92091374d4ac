package mem

import "testing"

func newWokenHier(t *testing.T) *Hierarchy {
	t.Helper()
	h, err := NewHierarchy(3, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// runWoken ticks the hierarchy from cycle from until nothing is pending and
// returns every nonzero woken set Tick reported, by cycle.
func runWoken(t *testing.T, h *Hierarchy, from uint64) map[uint64]uint64 {
	t.Helper()
	got := map[uint64]uint64{}
	for cyc := from; h.NextWake(cyc) != neverWake || cyc == from; cyc++ {
		if cyc > from+1000 {
			t.Fatal("hierarchy never went quiet")
		}
		h.BeginCycle(cyc)
		if w := h.Tick(cyc); w != 0 {
			got[cyc] = w
		}
	}
	return got
}

// onlyWake asserts got holds exactly one woken set, want, and returns its
// cycle.
func onlyWake(t *testing.T, got map[uint64]uint64, want uint64) uint64 {
	t.Helper()
	if len(got) != 1 {
		t.Fatalf("woken sets %v, want exactly one (%#b)", got, want)
	}
	for cyc, w := range got {
		if w != want {
			t.Fatalf("cycle %d woke %#b, want %#b", cyc, w, want)
		}
		return cyc
	}
	return 0
}

// TestTickWokenSet: Tick's woken set names exactly the thread units whose
// I or D unit received a fill that cycle, and nothing else: not the DRAM
// completion that fills the L2, and not a unit whose miss is still out.
func TestTickWokenSet(t *testing.T) {
	t.Run("dfill", func(t *testing.T) {
		h := newWokenHier(t)
		h.BeginCycle(0)
		req := h.DUnit(1).Access(0, 0x4000, Load, SrcDemand, 0)
		got := runWoken(t, h, 0)
		cyc := onlyWake(t, got, 1<<1)
		if !req.Done || req.DoneCycle != cyc {
			t.Errorf("request done=%v at %d, woken at %d", req.Done, req.DoneCycle, cyc)
		}
	})
	t.Run("ifill", func(t *testing.T) {
		h := newWokenHier(t)
		h.BeginCycle(0)
		if h.IUnit(2).FetchReady(0, 64) {
			t.Fatal("cold I-cache hit")
		}
		cyc := onlyWake(t, runWoken(t, h, 0), 1<<2)
		if !h.IUnit(2).FetchReady(cyc+1, 64) {
			t.Error("woken I unit still misses")
		}
	})
	t.Run("dram-fanout", func(t *testing.T) {
		// Two TUs miss the same L2 block; the L2 MSHR merges them, and one
		// DRAM completion fans out to both in the same cycle.
		h := newWokenHier(t)
		h.BeginCycle(0)
		a := h.DUnit(0).Access(0, 0x8000, Load, SrcDemand, 0)
		b := h.DUnit(2).Access(0, 0x8000, Load, SrcDemand, 0)
		cyc := onlyWake(t, runWoken(t, h, 0), 1<<0|1<<2)
		if h.DRAMFills != 1 || h.L2Misses != 2 {
			t.Errorf("DRAM fills %d, L2 misses %d: want one merged DRAM fill for two misses",
				h.DRAMFills, h.L2Misses)
		}
		if a.DoneCycle != cyc || b.DoneCycle != cyc {
			t.Errorf("fills done at %d and %d, woken at %d", a.DoneCycle, b.DoneCycle, cyc)
		}
	})
}
