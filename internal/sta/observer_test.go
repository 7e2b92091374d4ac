package sta_test

import (
	"bytes"
	"encoding/json"
	"slices"
	"testing"

	"repro/internal/attrib"
	"repro/internal/config"
	"repro/internal/metrics"
	"repro/internal/sta"
	"repro/internal/trace"
	"repro/internal/workload"
)

// TestObserverSinksAgree runs the headline machine with every part of one
// collector attached and checks that the parts tell one story: the event
// sink and the timeline saw the same lifecycle events, the registry's
// attribution counters are the report's totals, the tap's final bridged
// snapshot is the registry's, and the tap's last cycle is the run's.
func TestObserverSinksAgree(t *testing.T) {
	w, err := workload.ByName("mcf")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := w.Build(1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := config.Main(8)
	if err := config.Apply(config.WTHWPWEC, &cfg); err != nil {
		t.Fatal(err)
	}
	m, err := sta.New(cfg, prog)
	if err != nil {
		t.Fatal(err)
	}
	var rec trace.Recorder
	col := metrics.NewCollector(metrics.Interval)
	col.Timeline = trace.NewTimeline()
	col.Events = &rec
	col.Attrib = attrib.NewCollector()
	col.Tap = &metrics.ProgressTap{}
	m.Obs = col
	res, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}

	// Lifecycle: each kind the timeline marks with an instant.
	var buf bytes.Buffer
	if err := col.Timeline.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var tl trace.TraceFile
	if err := json.Unmarshal(buf.Bytes(), &tl); err != nil {
		t.Fatal(err)
	}
	if col.Timeline.Dropped != 0 {
		t.Fatalf("timeline dropped %d events", col.Timeline.Dropped)
	}
	instants := map[string]int{}
	for _, e := range tl.TraceEvents {
		if e.Ph == "i" && e.Cat == "lifecycle" {
			instants[e.Name]++
		}
	}
	for kind, name := range map[trace.Kind]string{
		trace.Begin: "begin", trace.Fork: "fork", trace.Abort: "abort",
		trace.WrongMark: "wrong-mark", trace.Kill: "kill",
		trace.SeqResume: "resume", trace.Halt: "halt",
	} {
		if got, want := instants[name], rec.Count(kind); got != want {
			t.Errorf("%s: timeline has %d instants, event sink %d", kind, got, want)
		}
	}
	if rec.Count(trace.Fork) == 0 || rec.Count(trace.WrongMark) == 0 {
		t.Fatalf("run exercised no forks or wrong threads: %d/%d",
			rec.Count(trace.Fork), rec.Count(trace.WrongMark))
	}

	// Attribution: registry counters against the sealed report.
	snap := col.Registry.Snapshot()
	counters := map[string]uint64{}
	for _, kv := range snap {
		counters[kv.Key] = kv.Value
	}
	rep := col.Attrib.Report(res.Stats.Cycles)
	for key, want := range map[string]uint64{
		"attrib/spec_fills":     rep.SpecFills.Total(),
		"attrib/useful":         rep.Useful.Total(),
		"attrib/late":           rep.Late.Total(),
		"attrib/useless":        rep.Useless.Total(),
		"attrib/polluting":      rep.Polluting.Total(),
		"attrib/demand_fills":   rep.DemandFills,
		"attrib/victim_inserts": rep.VictimInserts,
		"attrib/victim_hits":    rep.VictimHits,
	} {
		got, ok := counters[key]
		if !ok {
			t.Errorf("registry has no %s", key)
		} else if got != want {
			t.Errorf("%s = %d, report says %d", key, got, want)
		}
	}
	if rep.SpecFills.Total() == 0 {
		t.Fatal("run made no speculative fills")
	}

	// Tap: the final bridge is the registry, the last cycle the result's.
	if got := col.Tap.Counters(); !slices.Equal(got, snap) {
		t.Errorf("tap bridged %d counters, registry holds %d (or values differ)", len(got), len(snap))
	}
	if cycle, _ := col.Tap.Latest(); cycle != res.Stats.Cycles {
		t.Errorf("tap's latest cycle %d, result %d", cycle, res.Stats.Cycles)
	}
}
