package trace

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// The golden file pins the Perfetto/Chrome trace JSON schema. Regenerate
// after an intentional schema change with:
//
//	go test ./internal/trace -run Golden -update
var update = flag.Bool("update", false, "rewrite golden files")

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s drifted from golden file.\n--- got ---\n%s\n--- want ---\n%s",
			name, got, want)
	}
}

func TestGoldenTimelineJSON(t *testing.T) {
	tl := NewTimeline()
	// A representative run: sequential prologue, a two-thread parallel
	// region where the successor is marked wrong and killed, an abort back
	// to sequential execution, and the halt.
	for _, e := range []Event{
		{Cycle: 50, TU: 0, Kind: Begin, Arg: 0b11},
		{Cycle: 55, TU: 0, Kind: Fork, Arg: 100},
		{Cycle: 60, TU: 0, Kind: Tsagd},
		{Cycle: 63, TU: 1, Kind: ThreadStart, Arg: 100},
		{Cycle: 70, TU: 1, Kind: Tsagd},
		{Cycle: 120, TU: 0, Kind: Abort, Arg: 200},
		{Cycle: 120, TU: 1, Kind: WrongMark},
		{Cycle: 125, TU: 0, Kind: WBDrain},
		{Cycle: 140, TU: 0, Kind: SeqResume, Arg: 200},
		{Cycle: 180, TU: 1, Kind: Kill},
		{Cycle: 300, TU: 0, Kind: Halt},
	} {
		tl.Event(e)
	}
	tl.MemSpan(0, 80, 98, false, 7)
	tl.MemSpan(1, 130, 170, true, -1)

	var buf bytes.Buffer
	if err := tl.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	// The trace must be well-formed Chrome trace-event JSON.
	var f struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
			Pid  *int   `json:"pid"`
			Tid  *int   `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if len(f.TraceEvents) == 0 {
		t.Fatal("empty trace")
	}
	phs := map[string]bool{}
	for _, e := range f.TraceEvents {
		phs[e.Ph] = true
		if e.Ph == "" || e.Pid == nil || e.Tid == nil {
			t.Errorf("event %q missing ph/pid/tid", e.Name)
		}
	}
	for _, ph := range []string{"M", "X", "i"} {
		if !phs[ph] {
			t.Errorf("no %q events in trace", ph)
		}
	}
	checkGolden(t, "timeline.golden.json", buf.Bytes())
}

func TestTimelineCap(t *testing.T) {
	tl := NewTimeline()
	tl.MaxEvents = 3
	for i := uint64(0); i < 10; i++ {
		tl.MemSpan(0, i*10, i*10+5, false, -1)
	}
	if len(tl.events) != 3 {
		t.Errorf("events = %d, want 3", len(tl.events))
	}
	if tl.Dropped != 7 {
		t.Errorf("dropped = %d, want 7", tl.Dropped)
	}
}

func TestTimelineStageMachine(t *testing.T) {
	tl := NewTimeline()
	// TU1: start -> tsagd -> thend -> wb -> retire.
	for _, e := range []Event{
		{Cycle: 10, TU: 1, Kind: ThreadStart, Arg: 42},
		{Cycle: 20, TU: 1, Kind: Tsagd},
		{Cycle: 80, TU: 1, Kind: ThreadEnd},
		{Cycle: 90, TU: 1, Kind: WBDrain},
		{Cycle: 95, TU: 1, Kind: Retire},
	} {
		tl.Event(e)
	}
	names := map[string]bool{}
	for _, e := range tl.events {
		if e.Tid == pipeTID(1) && e.Ph == "X" {
			names[e.Name] = true
		}
	}
	for _, want := range []string{"tsag", "compute", "wb-wait", "write-back"} {
		if !names[want] {
			t.Errorf("missing %q span; have %v", want, names)
		}
	}
}

// TestTimelineFinishInTUOrder: spans still open at the halt close in TU
// order, so identical runs export byte-identical timelines.
func TestTimelineFinishInTUOrder(t *testing.T) {
	tl := NewTimeline()
	for _, tu := range []int{5, 2, 7, 3} {
		tl.Event(Event{Cycle: 10, TU: tu, Kind: WrongMark})
	}
	before := len(tl.events)
	tl.Finish(100)
	var tids []int
	for _, e := range tl.events[before:] {
		tids = append(tids, e.Tid)
	}
	want := []int{pipeTID(0), pipeTID(2), pipeTID(3), pipeTID(5), pipeTID(7)}
	if fmt.Sprint(tids) != fmt.Sprint(want) {
		t.Fatalf("close-out tracks %v, want %v", tids, want)
	}
}
