package attrib

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

// The golden files pin the attribution export schemas: the JSON report and
// the text summary. Regenerate after an intentional schema change with:
//
//	go test ./internal/attrib -run Golden -update
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

// goldenCollector replays a small deterministic event stream exercising
// every classification: useful, late, useless, resident, polluting, a
// victim capture, and a victim hit.
func goldenCollector() *Collector {
	a := NewCollector()
	a.window = 500
	a.topN = 3

	// Correct-path warmup: two demand fills.
	a.OnDemandAccess(0, 10, 0x1000, 5, true)
	a.OnFill(0, 0x1000, OriginDemand, 10, 40, StructL1)
	a.OnDemandAccess(0, 11, 0x2000, 6, true)
	a.OnFill(0, 0x2000, OriginDemand, 11, 41, StructL1)

	// Wrong-path fill later touched by the correct path: useful.
	a.OnWrongIssue(20)
	a.OnFill(0, 0x3000, OriginWrongPath, 20, 100, StructSide)
	a.OnDemandAccess(0, 10, 0x3000, 150, false)
	a.OnSpecTouch(0, 0x3000, 150)
	a.OnPromote(0, 0x3000)

	// The promotion swap captures an L1 victim into the side buffer; a
	// later correct access hits it there: the victim-cache role.
	a.OnVictimCapture(0, 0x1000, 150)
	a.OnDemandAccess(0, 11, 0x1000, 180, false)
	a.OnVictimHit(0, 0x1000, 180)

	// Wrong-thread fill that displaces a correct block (pollution: the
	// block is re-missed within the window) and is evicted untouched.
	a.OnWrongIssue(21)
	a.OnFill(1, 0x4000, OriginWrongThread, 21, 200, StructL1)
	a.OnFill(1, 0x5000, OriginDemand, 12, 90, StructL1)
	a.OnEvict(1, 0x5000, OriginWrongThread, 21, 200)
	a.OnDemandAccess(1, 12, 0x5000, 400, true)
	a.OnEvict(1, 0x4000, OriginDemand, 12, 410)

	// A prefetch whose MSHR entry a demand merged into (late), and one
	// still untouched at the end of the run (resident).
	a.OnLateFill(OriginPrefetch, 13)
	a.OnFill(0, 0x6000, OriginDemand, 13, 500, StructL1)
	a.OnFill(0, 0x7000, OriginPrefetch, 13, 600, StructSide)
	return a
}

func TestGoldenAttribJSON(t *testing.T) {
	rep := goldenCollector().Report(1000)
	if err := rep.CheckInternal(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	// Schema sanity, independent of the byte-exact golden.
	var e struct {
		Cycles    uint64             `json:"cycles"`
		SpecFills map[string]uint64  `json:"spec_fills"`
		Useful    map[string]uint64  `json:"useful"`
		TopPCs    []map[string]int64 `json:"top_pcs"`
	}
	if err := json.Unmarshal(buf.Bytes(), &e); err != nil {
		t.Fatalf("report is not valid JSON: %v", err)
	}
	if e.Cycles != 1000 || e.SpecFills["wrong_path"] != 1 || e.Useful["wrong_path"] != 1 {
		t.Errorf("cycles=%d spec=%v useful=%v", e.Cycles, e.SpecFills, e.Useful)
	}
	if len(e.TopPCs) != 3 {
		t.Errorf("top_pcs rows = %d, want TopN=3", len(e.TopPCs))
	}
	checkGolden(t, "attrib.golden.json", buf.Bytes())
}

func TestGoldenAttribText(t *testing.T) {
	rep := goldenCollector().Report(1000)
	var buf bytes.Buffer
	labels := map[int]string{10: "loop_a", 11: "loop_b"}
	if err := rep.WriteText(&buf, func(pc int) string { return labels[pc] }); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "attrib.golden.txt", buf.Bytes())
}
