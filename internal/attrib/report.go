package attrib

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// OriginCounts splits a classification count by speculative origin.
type OriginCounts struct {
	WrongPath   uint64 `json:"wrong_path"`
	WrongThread uint64 `json:"wrong_thread"`
	Prefetch    uint64 `json:"prefetch"`
}

// Total sums the three origins.
func (o OriginCounts) Total() uint64 { return o.WrongPath + o.WrongThread + o.Prefetch }

func fromArray(arr *[numOrigins]uint64) OriginCounts {
	return OriginCounts{
		WrongPath:   arr[OriginWrongPath],
		WrongThread: arr[OriginWrongThread],
		Prefetch:    arr[OriginPrefetch],
	}
}

// Report is the attribution export schema (pinned by a golden-file test).
type Report struct {
	Cycles uint64 `json:"cycles"`
	Window uint64 `json:"window"`

	// Fill provenance.
	DemandFills   uint64       `json:"demand_fills"`
	VictimInserts uint64       `json:"victim_inserts"`
	SpecFills     OriginCounts `json:"spec_fills"`

	// Classification of every speculative fill (and the late merges that
	// never became fills of their own).
	Useful   OriginCounts `json:"useful"`
	Late     OriginCounts `json:"late"`
	Useless  OriginCounts `json:"useless"`
	Resident OriginCounts `json:"resident"`

	// Pollution: correct-path blocks displaced by speculation, and the
	// subset re-missed by correct demand within the window.
	PollutionEvictions OriginCounts `json:"pollution_evictions"`
	Polluting          OriginCounts `json:"polluting"`

	// Side-buffer victim-cache role.
	VictimHits uint64 `json:"victim_hits"`

	// Diagnostics: refills overwrote a live provenance record (expected 0);
	// shadow-table insertions refused at the capacity bound.
	Refills       uint64 `json:"refills"`
	ShadowDropped uint64 `json:"shadow_dropped"`

	TopPCs []PCProfile `json:"top_pcs"`
}

// Report seals the collector and builds the exportable report. cycles is
// the run length (stats.Sim.Cycles).
func (a *Collector) Report(cycles uint64) *Report {
	if a == nil {
		return nil
	}
	a.Finish()
	r := &Report{
		Cycles:             cycles,
		Window:             a.window,
		DemandFills:        a.demandFills,
		VictimInserts:      a.victimInserts,
		SpecFills:          fromArray(&a.specFills),
		Useful:             fromArray(&a.useful),
		Late:               fromArray(&a.late),
		Useless:            fromArray(&a.useless),
		Resident:           fromArray(&a.resident),
		PollutionEvictions: fromArray(&a.pollutionEvicts),
		Polluting:          fromArray(&a.polluting),
		VictimHits:         a.victimHits,
		Refills:            a.refills,
		ShadowDropped:      a.shadowDropped,
	}
	top := a.topN
	profiles := make([]PCProfile, 0, len(a.pcs))
	for _, p := range a.pcs {
		profiles = append(profiles, *p)
	}
	sort.Slice(profiles, func(i, j int) bool {
		wi := profiles[i].Accesses + profiles[i].WrongIssues
		wj := profiles[j].Accesses + profiles[j].WrongIssues
		if wi != wj {
			return wi > wj
		}
		return profiles[i].PC < profiles[j].PC
	})
	if len(profiles) > top {
		profiles = profiles[:top]
	}
	r.TopPCs = profiles
	return r
}

// CheckInternal verifies the report's own accounting identity: every
// speculative fill is classified exactly once as useful, useless, or
// resident (late merges are demand fills and counted separately).
func (r *Report) CheckInternal() error {
	check := func(name string, fills, useful, useless, resident uint64) error {
		if fills != useful+useless+resident {
			return fmt.Errorf("attrib: %s fills %d != useful %d + useless %d + resident %d",
				name, fills, useful, useless, resident)
		}
		return nil
	}
	if err := check("wrong_path", r.SpecFills.WrongPath, r.Useful.WrongPath, r.Useless.WrongPath, r.Resident.WrongPath); err != nil {
		return err
	}
	if err := check("wrong_thread", r.SpecFills.WrongThread, r.Useful.WrongThread, r.Useless.WrongThread, r.Resident.WrongThread); err != nil {
		return err
	}
	if err := check("prefetch", r.SpecFills.Prefetch, r.Useful.Prefetch, r.Useless.Prefetch, r.Resident.Prefetch); err != nil {
		return err
	}
	for name, oc := range map[string]struct{ sub, sup OriginCounts }{
		"polluting>evictions": {r.Polluting, r.PollutionEvictions},
	} {
		if oc.sub.WrongPath > oc.sup.WrongPath || oc.sub.WrongThread > oc.sup.WrongThread || oc.sub.Prefetch > oc.sup.Prefetch {
			return fmt.Errorf("attrib: %s violated: %+v > %+v", name, oc.sub, oc.sup)
		}
	}
	if r.Refills != 0 {
		return fmt.Errorf("attrib: %d fills overwrote a live provenance record", r.Refills)
	}
	return nil
}

// WriteJSON writes the report with a stable, indented schema.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(r)
}

func pct(n, d uint64) float64 {
	if d == 0 {
		return 0
	}
	return 100 * float64(n) / float64(d)
}

// WriteText renders a human-readable summary. label, when non-nil, maps a
// PC to a source label (e.g. the nearest program symbol) for the top table.
func (r *Report) WriteText(w io.Writer, label func(pc int) string) error {
	spec := r.SpecFills.Total()
	p := func(format string, args ...any) { fmt.Fprintf(w, format, args...) }
	p("attribution over %d cycles (pollution window %d)\n", r.Cycles, r.Window)
	p("fills: %d demand, %d victim captures, %d speculative\n",
		r.DemandFills, r.VictimInserts, spec)
	row := func(name string, f, u, l, ul, res, pol uint64) {
		if f == 0 && l == 0 {
			return
		}
		p("  %-12s %8d fills: %6d useful (%.1f%%), %5d late, %6d useless (%.1f%%), %5d resident, %5d polluting\n",
			name, f, u, pct(u, f), l, ul, pct(ul, f), res, pol)
	}
	row("wrong-path", r.SpecFills.WrongPath, r.Useful.WrongPath, r.Late.WrongPath,
		r.Useless.WrongPath, r.Resident.WrongPath, r.Polluting.WrongPath)
	row("wrong-thread", r.SpecFills.WrongThread, r.Useful.WrongThread, r.Late.WrongThread,
		r.Useless.WrongThread, r.Resident.WrongThread, r.Polluting.WrongThread)
	row("prefetch", r.SpecFills.Prefetch, r.Useful.Prefetch, r.Late.Prefetch,
		r.Useless.Prefetch, r.Resident.Prefetch, r.Polluting.Prefetch)
	if spec == 0 {
		p("  no speculative fills\n")
	}
	p("pollution: %d correct-path blocks displaced by speculation, %d re-missed in window\n",
		r.PollutionEvictions.Total(), r.Polluting.Total())
	p("victim-cache role: %d side hits on non-speculative blocks\n", r.VictimHits)
	if r.ShadowDropped > 0 {
		p("note: %d displaced blocks not tracked (shadow table full)\n", r.ShadowDropped)
	}
	if len(r.TopPCs) == 0 {
		return nil
	}
	p("top load PCs:\n")
	p("  %6s %-20s %9s %8s %8s %7s %7s %6s %8s %9s\n",
		"pc", "label", "accesses", "misses", "wrong", "fills", "useful", "late", "useless", "polluting")
	for _, e := range r.TopPCs {
		name := ""
		if label != nil {
			name = label(e.PC)
		}
		p("  %6d %-20s %9d %8d %8d %7d %7d %6d %8d %9d\n",
			e.PC, name, e.Accesses, e.Misses, e.WrongIssues, e.SpecFills,
			e.Useful, e.Late, e.Useless, e.Polluting)
	}
	return nil
}
