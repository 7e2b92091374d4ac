package metrics

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

// The golden files pin the export schemas: metrics JSON and the
// interval-series CSV (internal/trace pins the timeline's). Regenerate
// after an intentional schema change with:
//
//	go test ./internal/metrics -run Golden -update
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

// goldenCollector builds a collector with fully deterministic contents.
func goldenCollector() *Collector {
	c := NewCollector(100)

	var commits, misses, accesses uint64
	c.Registry.RegisterFunc("tu0", "commits", func() uint64 { return commits })
	c.Registry.RegisterFunc("l1d0", "misses", func() uint64 { return misses })
	c.Registry.RegisterFunc("l1d0", "accesses", func() uint64 { return accesses })
	c.Sampler.Add("ipc", PerCycle, func() float64 { return float64(commits) }, nil)
	c.Sampler.Add("l1d_miss_rate", Ratio,
		func() float64 { return float64(misses) },
		func() float64 { return float64(accesses) })

	commits, misses, accesses = 150, 4, 40
	c.MaybeSample(100)
	commits, misses, accesses = 410, 4, 100
	c.MaybeSample(200)

	c.ObserveMemAccess(0, 40, 10, 11, false) // L1 hit: latency 1
	c.ObserveMemAccess(0, 41, 20, 38, false) // L2 hit: latency 18
	c.ObserveMemAccess(1, 42, 30, 150, true) // wrong-execution DRAM miss
	c.LoadToUse.Observe(2)
	c.LoadToUse.Observe(7)
	c.WECPromotion.Observe(25)
	c.ThreadRetire.Observe(900)
	c.ThreadKill.Observe(60)

	c.Finish(250)
	return c
}

func TestGoldenMetricsJSON(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenCollector().WriteJSON(&buf, 250); err != nil {
		t.Fatal(err)
	}
	// Schema sanity, independent of the byte-exact golden.
	var e struct {
		Cycles   uint64            `json:"cycles"`
		Counters map[string]uint64 `json:"counters"`
		Series   *struct {
			Interval uint64      `json:"interval"`
			Columns  []string    `json:"columns"`
			Rows     [][]float64 `json:"rows"`
		} `json:"series"`
		Histograms []json.RawMessage `json:"histograms"`
	}
	if err := json.Unmarshal(buf.Bytes(), &e); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	if e.Cycles != 250 || e.Counters["tu0/commits"] != 410 {
		t.Errorf("cycles=%d counters=%v", e.Cycles, e.Counters)
	}
	if e.Series == nil || e.Series.Columns[0] != "cycle" || len(e.Series.Rows) != 3 {
		t.Errorf("series = %+v", e.Series)
	}
	if len(e.Histograms) != 5 {
		t.Errorf("histograms = %d, want 5", len(e.Histograms))
	}
	checkGolden(t, "metrics.golden.json", buf.Bytes())
}

func TestGoldenSeriesCSV(t *testing.T) {
	checkGolden(t, "series.golden.csv", []byte(goldenCollector().SeriesCSV()))
}
