package runstore

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/config"
	"repro/internal/isa"
	"repro/internal/sta"
	"repro/internal/stats"
)

// mkManifest builds a manifest for tests: a real config (so Infer and the
// hardware fields engage) with distinguishable counters.
func mkManifest(t *testing.T, bench string, name config.Name, tus, side int, cycles uint64) *Manifest {
	t.Helper()
	cfg := config.Main(tus)
	cfg.Mem.SideEntries = side
	if err := config.Apply(name, &cfg); err != nil {
		t.Fatal(err)
	}
	res := &sta.Result{MemCheck: 0x1234}
	res.Stats.Cycles = cycles
	res.Stats.Commits = cycles * 2
	res.Stats.L1DAccesses = 1000
	res.Stats.L1DMisses = 100
	m := New(bench, 1, cfg, res)
	m.Tool = "test"
	return m
}

func TestContentAddressing(t *testing.T) {
	a := mkManifest(t, "mcf", config.WTHWPWEC, 8, 16, 1000)
	b := mkManifest(t, "gzip", config.WTHWPWEC, 8, 16, 2000)
	c := mkManifest(t, "mcf", config.WTHWPWEC, 8, 2, 1000)
	if a.CfgHash != b.CfgHash {
		t.Errorf("same machine, different bench: CfgHash %s vs %s, want equal", a.CfgHash, b.CfgHash)
	}
	if a.CfgHash == c.CfgHash {
		t.Errorf("different side-buffer sizes share CfgHash %s", a.CfgHash)
	}
	if a.ShortKey == b.ShortKey {
		t.Errorf("different benches share ShortKey %s", a.ShortKey)
	}
	if !strings.HasPrefix(a.CfgHash, "c") || len(a.CfgHash) != 17 {
		t.Errorf("CfgHash %q not in c+16hex form", a.CfgHash)
	}
	if a.Config != "wth-wp-wec" {
		t.Errorf("Config inferred as %q, want wth-wp-wec", a.Config)
	}
	if a.CellKey != a.CfgHash+"/mcf-s1" {
		t.Errorf("CellKey %q", a.CellKey)
	}
	if a.SideKind != "wec" || a.SideEntries != 16 || a.TUs != 8 {
		t.Errorf("hardware fields: %s/%d tus=%d", a.SideKind, a.SideEntries, a.TUs)
	}
}

func TestHardwareCostKB(t *testing.T) {
	wec := mkManifest(t, "mcf", config.WTHWPWEC, 8, 16, 1000)
	orig := mkManifest(t, "mcf", config.Orig, 8, 16, 1000)
	// orig has no side buffer, so its cost must be exactly TUs*L1 + L2.
	wantOrig := float64(orig.TUs*orig.L1KB + orig.L2KB)
	if orig.HardwareCostKB() != wantOrig {
		t.Errorf("orig cost %.1f, want %.1f", orig.HardwareCostKB(), wantOrig)
	}
	if wec.HardwareCostKB() <= orig.HardwareCostKB() {
		t.Errorf("WEC cost %.1f not above orig %.1f", wec.HardwareCostKB(), orig.HardwareCostKB())
	}
}

func TestStorePutGetReopen(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	a := mkManifest(t, "mcf", config.WTHWPWEC, 8, 16, 1000)
	b := mkManifest(t, "gzip", config.WTHWPWEC, 8, 16, 2000)
	for _, m := range []*Manifest{a, b} {
		if err := st.Put(m); err != nil {
			t.Fatal(err)
		}
	}
	if st.Len() != 2 {
		t.Fatalf("Len %d, want 2", st.Len())
	}
	if _, err := os.Stat(st.ManifestPath(a)); err != nil {
		t.Fatalf("per-cell manifest missing: %v", err)
	}
	st.Close()

	st2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	got := st2.Get(a.CellKey)
	if got == nil || got.Stats != a.Stats || got.MemoKey != a.MemoKey {
		t.Fatalf("reopened manifest does not round-trip: %+v", got)
	}
	all := st2.All()
	if len(all) != 2 || all[0].CellKey > all[1].CellKey {
		t.Fatalf("All() not sorted: %v", all)
	}
}

func TestStorePutIdempotent(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	m := mkManifest(t, "mcf", config.WTHWPWEC, 8, 16, 1000)
	for i := 0; i < 3; i++ {
		if err := st.Put(mkManifest(t, "mcf", config.WTHWPWEC, 8, 16, 1000)); err != nil {
			t.Fatal(err)
		}
	}
	idx, err := os.ReadFile(filepath.Join(dir, "index.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(string(idx), "\n"); n != 2 { // header + one entry
		t.Fatalf("idempotent Put appended %d index lines, want 2 (header + 1)", n)
	}
	// A manifest that adds attribution supersedes the stored one.
	withAttrib := mkManifest(t, "mcf", config.WTHWPWEC, 8, 16, 1000)
	withAttrib.Attrib = &AttribSummary{SpecFills: 10, Useful: 7}
	if err := st.Put(withAttrib); err != nil {
		t.Fatal(err)
	}
	if got := st.Get(m.CellKey); got.Attrib == nil || got.Attrib.Useful != 7 {
		t.Fatalf("attribution did not supersede: %+v", got.Attrib)
	}
	// Re-putting the same attribution is again a no-op.
	again := mkManifest(t, "mcf", config.WTHWPWEC, 8, 16, 1000)
	again.Attrib = &AttribSummary{SpecFills: 10, Useful: 7}
	if err := st.Put(again); err != nil {
		t.Fatal(err)
	}
	idx, _ = os.ReadFile(filepath.Join(dir, "index.jsonl"))
	if n := strings.Count(string(idx), "\n"); n != 3 {
		t.Fatalf("index has %d lines, want 3 (header + initial + attrib supersede)", n)
	}
}

func TestStoreTornTail(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Put(mkManifest(t, "mcf", config.WTHWPWEC, 8, 16, 1000)); err != nil {
		t.Fatal(err)
	}
	st.Close()
	// Simulate a process killed mid-append.
	path := filepath.Join(dir, "index.jsonl")
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"v":1,"cell_key":"c00/torn-s1","ben`); err != nil {
		t.Fatal(err)
	}
	f.Close()
	st2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if st2.Len() != 1 {
		t.Fatalf("torn tail not dropped: Len %d, want 1", st2.Len())
	}
	// The file must have been truncated back to intact entries.
	if err := st2.Put(mkManifest(t, "gzip", config.WTHWPWEC, 8, 16, 500)); err != nil {
		t.Fatal(err)
	}
	st2.Close()
	st3, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st3.Close()
	if st3.Len() != 2 {
		t.Fatalf("after truncate+append: Len %d, want 2", st3.Len())
	}
}

func TestSelector(t *testing.T) {
	ms := []*Manifest{
		mkManifest(t, "mcf", config.WTHWPWEC, 8, 16, 1000),
		mkManifest(t, "gzip", config.WTHWPWEC, 8, 16, 2000),
		mkManifest(t, "mcf", config.Orig, 8, 16, 3000),
		mkManifest(t, "mcf", config.WTHWPWEC, 4, 16, 4000),
	}
	cases := []struct {
		expr string
		want int
	}{
		{"config=wth-wp-wec", 3},
		{"config=wth-wp-wec,tus=8", 2},
		{"bench=mcf,config=orig", 1},
		{"wth-wp-wec", 3},                   // bare config name
		{ms[0].CfgHash[:6], 2},              // bare hash prefix (both wth-wp-wec/8tu cells)
		{"hash=" + ms[0].CfgHash[1:5], 2},   // hash key without the 'c'
		{"sidekind=wec,side=16,scale=1", 3}, // orig has SideNone
		{"key=NumTUs:4", 1},
		{"tool=test", 4},
	}
	for _, c := range cases {
		sel, err := ParseSelector(c.expr)
		if err != nil {
			t.Fatalf("%s: %v", c.expr, err)
		}
		if got := len(Select(ms, sel)); got != c.want {
			t.Errorf("selector %q matched %d, want %d", c.expr, got, c.want)
		}
	}
	if _, err := ParseSelector("bogus=1"); err == nil {
		t.Error("unknown key accepted")
	}
	if _, err := ParseSelector("tus=abc"); err == nil {
		t.Error("non-integer tus accepted")
	}
	if got := len(Grep(ms, regexp.MustCompile("orig"))); got != 1 {
		t.Errorf("Grep(orig) matched %d, want 1", got)
	}
}

func TestPairByBench(t *testing.T) {
	a1 := mkManifest(t, "mcf", config.WTHWPWEC, 8, 16, 1000)
	a2 := mkManifest(t, "gzip", config.WTHWPWEC, 8, 16, 2000)
	b1 := mkManifest(t, "mcf", config.Orig, 8, 16, 1500)
	pairs, err := PairByBench([]*Manifest{a1, a2}, []*Manifest{b1})
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != 1 || pairs[0][0] != a1 || pairs[0][1] != b1 {
		t.Fatalf("pairs = %v", pairs)
	}
	// Ambiguous side: two configs for the same bench.
	if _, err := PairByBench([]*Manifest{a1, b1}, []*Manifest{b1}); err == nil {
		t.Error("ambiguous A side accepted")
	}
	// Disjoint benches: no pairs is an error, not an empty success.
	if _, err := PairByBench([]*Manifest{a2}, []*Manifest{b1}); err == nil {
		t.Error("disjoint selections accepted")
	}
	// Sampled-vs-detailed: estimates and exact counts must never pair.
	s1 := mkManifest(t, "mcf", config.Orig, 8, 16, 1500)
	s1.Sampling = "sample{w:1000,m:2000,p:12000}"
	if _, err := PairByBench([]*Manifest{a1}, []*Manifest{s1}); err == nil {
		t.Error("sampled-vs-detailed pair accepted")
	}
	s2 := mkManifest(t, "mcf", config.WTHWPWEC, 8, 16, 1000)
	s2.Sampling = s1.Sampling
	if pairs, err := PairByBench([]*Manifest{s2}, []*Manifest{s1}); err != nil || len(pairs) != 1 {
		t.Errorf("same-regime sampled pair rejected: %v", err)
	}
	s2.Sampling = "sample{w:9,m:9,p:99}"
	if _, err := PairByBench([]*Manifest{s2}, []*Manifest{s1}); err == nil {
		t.Error("mismatched sampling regimes accepted")
	}
}

func TestCompareSelfIsExactlyZero(t *testing.T) {
	a := mkManifest(t, "mcf", config.WTHWPWEC, 8, 16, 1000)
	b := mkManifest(t, "gzip", config.WTHWPWEC, 8, 16, 2000)
	pairs := [][2]*Manifest{{a, a}, {b, b}}
	for _, met := range DiffMetrics() {
		d := Compare(pairs, met, 1000, 0, 0.95)
		if d.Mean != 0 || d.Lo != 0 || d.Hi != 0 {
			t.Errorf("%s: self-compare = mean %g CI [%g, %g], want exact zeros", met.Name, d.Mean, d.Lo, d.Hi)
		}
		if d.Regressed(0.01) {
			t.Errorf("%s: self-compare flagged as regression", met.Name)
		}
	}
}

func TestCompareFlagsRegression(t *testing.T) {
	// B is uniformly ~20% slower than A on every benchmark.
	var pairs [][2]*Manifest
	for i, bench := range []string{"a", "b", "c", "d"} {
		fast := mkManifest(t, bench, config.WTHWPWEC, 8, 16, uint64(1000+i))
		slow := mkManifest(t, bench, config.Orig, 8, 16, uint64(1200+i))
		slow.Stats.Commits = fast.Stats.Commits // same work, more cycles -> lower IPC
		pairs = append(pairs, [2]*Manifest{fast, slow})
	}
	for _, met := range DiffMetrics() {
		if met.Name == "l1d_miss_rate" {
			continue // identical miss counters in this fixture
		}
		d := Compare(pairs, met, 2000, 0, 0.95)
		if !d.Regressed(0.01) {
			t.Errorf("%s: uniform 20%% slowdown not flagged (mean %g, CI [%g, %g])", met.Name, d.Mean, d.Lo, d.Hi)
		}
	}
}

func TestBootstrapDeterministic(t *testing.T) {
	xs := []float64{0.01, -0.02, 0.03, -0.04, 0.05}
	lo1, hi1 := stats.BootstrapCI(xs, 5000, 7, 0.95)
	lo2, hi2 := stats.BootstrapCI(xs, 5000, 7, 0.95)
	if lo1 != lo2 || hi1 != hi2 {
		t.Errorf("same seed produced different intervals: [%g,%g] vs [%g,%g]", lo1, hi1, lo2, hi2)
	}
	if lo1 > hi1 {
		t.Errorf("inverted interval [%g, %g]", lo1, hi1)
	}
	if mean(xs) < lo1 || mean(xs) > hi1 {
		t.Errorf("interval [%g, %g] does not cover the sample mean %g", lo1, hi1, mean(xs))
	}
}

func TestPareto(t *testing.T) {
	baseline := []*Manifest{
		mkManifest(t, "mcf", config.Orig, 8, 16, 2000),
		mkManifest(t, "gzip", config.Orig, 8, 16, 1000),
	}
	// wec16: faster everywhere but costs more SRAM; vc: cheaper than wec16
	// (VC cost model is the same formula) and slower -> both on the frontier;
	// a hypothetical slower-AND-pricier config must be dominated.
	wec := []*Manifest{
		mkManifest(t, "mcf", config.WTHWPWEC, 8, 16, 1000),
		mkManifest(t, "gzip", config.WTHWPWEC, 8, 16, 800),
	}
	dominated := []*Manifest{
		mkManifest(t, "mcf", config.WTHWPWEC, 8, 32, 1900),
		mkManifest(t, "gzip", config.WTHWPWEC, 8, 32, 990),
	}
	var all []*Manifest
	all = append(all, baseline...)
	all = append(all, wec...)
	all = append(all, dominated...)
	pts, err := Pareto(all, baseline)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 3 {
		t.Fatalf("got %d points, want 3", len(pts))
	}
	byHash := make(map[string]ParetoPoint)
	for _, p := range pts {
		byHash[p.CfgHash] = p
	}
	if !byHash[wec[0].CfgHash].Frontier {
		t.Errorf("fast wec16 not on frontier: %+v", byHash[wec[0].CfgHash])
	}
	if byHash[dominated[0].CfgHash].Frontier {
		t.Errorf("slower, pricier wec32 marked frontier: %+v", byHash[dominated[0].CfgHash])
	}
	if sp := byHash[wec[0].CfgHash].Speedup; sp <= 1 {
		t.Errorf("wec16 speedup %g, want > 1", sp)
	}
	// Ambiguous baseline is rejected.
	if _, err := Pareto(all, append(baseline, mkManifest(t, "mcf", config.VC, 8, 16, 1500))); err == nil {
		t.Error("ambiguous baseline accepted")
	}
}

// TestOldArchiveWorkersFieldStillLoads opens an archive written when
// manifests still recorded the machine's stepping-worker budget
// ("workers": 4). The field is gone from Manifest; such an archive must
// still open, answer cells in full (resuming from the archive needs the
// register file), query, diff, and accept new cells.
func TestOldArchiveWorkersFieldStillLoads(t *testing.T) {
	dir := t.TempDir()
	wec := mkManifest(t, "mcf", config.WTHWPWEC, 8, 16, 1000)
	orig := mkManifest(t, "mcf", config.Orig, 8, 16, 1200)
	hdr, _ := json.Marshal(indexHeader{V: indexVersion})
	lines := []string{string(hdr)}
	for _, m := range []*Manifest{wec, orig} {
		raw, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		var fields map[string]any
		if err := json.Unmarshal(raw, &fields); err != nil {
			t.Fatal(err)
		}
		fields["workers"] = 4
		old, err := json.Marshal(fields)
		if err != nil {
			t.Fatal(err)
		}
		lines = append(lines, string(old))
	}
	if err := os.WriteFile(filepath.Join(dir, "index.jsonl"), []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st.Len() != 2 {
		t.Fatalf("old archive: Len %d, want 2", st.Len())
	}
	got := st.Get(wec.CellKey)
	if got == nil || got.Stats != wec.Stats || got.MemoKey != wec.MemoKey ||
		got.MemCheck != wec.MemCheck || len(got.IntRegs) != isa.NumIntRegs {
		t.Fatalf("old manifest does not answer its cell: %+v", got)
	}
	sel, err := ParseSelector("bench=mcf,config=wth-wp-wec")
	if err != nil {
		t.Fatal(err)
	}
	a := Select(st.All(), sel)
	sel, err = ParseSelector("bench=mcf,config=orig")
	if err != nil {
		t.Fatal(err)
	}
	b := Select(st.All(), sel)
	pairs, err := PairByBench(a, b)
	if err != nil || len(pairs) != 1 {
		t.Fatalf("old manifests do not pair for a diff: %v (%d pairs)", err, len(pairs))
	}
	for _, met := range DiffMetrics() {
		if d := Compare(pairs, met, 100, 0, 0.95); math.IsNaN(d.Mean) {
			t.Errorf("%s: diff over old manifests is NaN", met.Name)
		}
	}
	if err := st.Put(mkManifest(t, "gzip", config.WTHWPWEC, 8, 16, 500)); err != nil {
		t.Fatal(err)
	}
	st.Close()
	st2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if st2.Len() != 3 {
		t.Fatalf("after appending to an old archive: Len %d, want 3", st2.Len())
	}
}
