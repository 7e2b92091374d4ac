package harness

import (
	"strings"
	"testing"

	"repro/internal/config"
)

func TestByID(t *testing.T) {
	for _, e := range All() {
		got, err := ByID(e.ID)
		if err != nil || got.ID != e.ID {
			t.Errorf("ByID(%s) = %v, %v", e.ID, got.ID, err)
		}
	}
	if _, err := ByID("fig99"); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestExperimentIDsCoverPaper(t *testing.T) {
	want := []string{"table2", "table3", "fig8", "fig9", "fig10", "fig11",
		"fig12", "fig13", "fig14", "fig15", "fig16", "fig17"}
	ids := map[string]bool{}
	for _, e := range All() {
		ids[e.ID] = true
	}
	for _, id := range want {
		if !ids[id] {
			t.Errorf("missing experiment %s", id)
		}
	}
}

func TestTable2AndTable3(t *testing.T) {
	r := NewRunner(1)
	tbl, err := table2(r)
	if err != nil {
		t.Fatal(err)
	}
	out := tbl.String()
	for _, b := range Benches() {
		if !strings.Contains(out, b.Name) {
			t.Errorf("table2 missing %s:\n%s", b.Name, out)
		}
	}
	tbl3, err := table3(r)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(tbl3.String(), "16") {
		t.Error("table3 output looks wrong")
	}
}

func TestResultMemoized(t *testing.T) {
	r := NewRunner(1)
	cfg := config.Main(2)
	a, err := r.Result("gzip", cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.Result("gzip", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("identical run not memoized")
	}
	// A different configuration is a different key.
	cfg2 := config.Main(2)
	cfg2.Mem.L1DSize = 4 * 1024
	c, err := r.Result("gzip", cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if c == a {
		t.Error("distinct configurations shared a memo entry")
	}
}

func TestResultValidatesArchitecture(t *testing.T) {
	// Every Result call checks the machine's memory image against the
	// functional reference; a passing run is itself the assertion. Run one
	// wrong-execution config to cover the interesting path.
	r := NewRunner(1)
	cfg := config.Main(4)
	if err := config.Apply(config.WTHWPWEC, &cfg); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Result("vpr", cfg); err != nil {
		t.Fatal(err)
	}
}

func TestBatchPropagatesErrors(t *testing.T) {
	r := NewRunner(1)
	bad := config.Main(8)
	bad.MemBufEntries = 0 // invalid machine
	if err := r.batch([]job{{"mcf", bad}}); err == nil {
		t.Fatal("invalid machine accepted by batch")
	}
}

func TestUnknownBenchmark(t *testing.T) {
	r := NewRunner(1)
	if _, err := r.Result("nope", config.Main(1)); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
}
