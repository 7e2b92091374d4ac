// Package runstore is the content-addressed archive of completed
// simulation runs that the cross-run analytics (cmd/simql) query. Every
// completed cell — from the experiments harness or stasim — archives one
// Manifest: the configuration hash (derived from the harness
// memoization key), the benchmark, scale, git revision, telemetry run ID,
// wall time, and the full deterministic counter set (stats.Sim), plus
// references to the artifact files (metrics / attribution JSON, span
// journals) the run exported elsewhere.
//
// The archive layout under a root directory is
//
//	runs/
//	  index.jsonl            versioned append-only journal (one manifest per line)
//	  c<cfg-hash>/           one directory per machine configuration
//	    <bench>-s<scale>.json  one manifest per archived cell
//
// The index is an internal/journal file, like the harness results
// ledger: a versioned header line, appends flushed per entry, and
// torn-tail truncation on reopen — so archiving is crash-safe and a
// resumed sweep converges on exactly one manifest per cell (Put is
// idempotent). The per-cell manifest files are written atomically
// (temp file + rename) and are the durable, content-addressed record; the
// index exists so queries never have to walk the tree.
package runstore

import (
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/attrib"
	"repro/internal/config"
	"repro/internal/sta"
	"repro/internal/stats"
)

// ManifestVersion is bumped whenever the manifest schema changes shape in
// a way old readers cannot tolerate.
const ManifestVersion = 1

// AttribSummary is the fill-classification totals of a cell that ran with
// attribution attached — enough for the dashboard's fill-class stacks
// without re-reading the full per-PC report.
type AttribSummary struct {
	SpecFills  uint64 `json:"spec_fills"`
	Useful     uint64 `json:"useful"`
	Late       uint64 `json:"late"`
	Useless    uint64 `json:"useless"`
	Polluting  uint64 `json:"polluting"`
	VictimHits uint64 `json:"victim_hits"`
}

// SummarizeAttrib distills a full attribution report into the archived
// summary.
func SummarizeAttrib(rep *attrib.Report) *AttribSummary {
	if rep == nil {
		return nil
	}
	return &AttribSummary{
		SpecFills:  rep.SpecFills.Total(),
		Useful:     rep.Useful.Total(),
		Late:       rep.Late.Total(),
		Useless:    rep.Useless.Total(),
		Polluting:  rep.Polluting.Total(),
		VictimHits: rep.VictimHits,
	}
}

// Artifacts names the files a run with output directory out writes, keyed
// by kind as Manifest.Artifacts records them: the metrics export
// (prefix+"metrics.json"; the prefix tells a sweep's cells apart), the
// attribution report (prefix+"attrib.json") when attrib is set, and the
// span journal when spans is set. A run without an output directory
// writes none.
func Artifacts(out, prefix string, attrib, spans bool) map[string]string {
	if out == "" {
		return nil
	}
	a := map[string]string{"metrics": filepath.Join(out, prefix+"metrics.json")}
	if attrib {
		a["attrib"] = filepath.Join(out, prefix+"attrib.json")
	}
	if spans {
		a["spans"] = filepath.Join(out, "spans.jsonl")
	}
	return a
}

// WriteArtifact creates path and streams write's output into it.
func WriteArtifact(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Manifest is one archived cell: everything cross-run analytics need to
// list, pair, diff, and plot the run without re-simulating it.
type Manifest struct {
	V int `json:"v"`

	// CellKey uniquely names the cell: "<CfgHash>/<bench>-s<scale>". It is
	// the idempotency key — archiving the same cell twice is a no-op.
	CellKey string `json:"cell_key"`

	Bench string `json:"bench"`
	Scale int    `json:"scale"`

	// Config is the paper configuration name when the machine matches one
	// ("orig", "wth-wp-wec", ...), else "custom".
	Config string `json:"config"`
	// CfgHash is the content address of the machine configuration:
	// "c" + 16-hex FNV-64a of the configuration's memo-key rendering. All
	// benchmarks run on the same machine share a CfgHash directory.
	CfgHash string `json:"cfg_hash"`
	// ShortKey is the 8-hex FNV-32a tag of the full memo key that also
	// names this cell's metrics/attribution exports, ledger entries, and
	// telemetry spans ("cfg-xxxxxxxx" there).
	ShortKey string `json:"short_key"`
	// MemoKey is the harness memoization key in full ("bench|{cfg...}"),
	// kept so a manifest can always be traced back to an exact sta.Config.
	MemoKey string `json:"memo_key"`

	// Distilled hardware parameters, for filtering and the cost model.
	TUs         int    `json:"tus"`
	SideKind    string `json:"side_kind"`
	SideEntries int    `json:"side_entries"`
	L1KB        int    `json:"l1_kb"`
	L1Assoc     int    `json:"l1_assoc"`
	L1Block     int    `json:"l1_block"`
	L2KB        int    `json:"l2_kb"`
	MemLat      int    `json:"mem_lat"`

	// Provenance.
	Tool        string  `json:"tool"`               // experiments | stasim | harness (a Runner with no ArchiveTool)
	Sampling    string  `json:"sampling,omitempty"` // sampling-regime key for sampled runs ("" = detailed)
	Seed        uint64  `json:"seed,omitempty"`     // chaos seed, when fault injection was active
	GitRev      string  `json:"git_rev,omitempty"`  // repository revision of the producing build
	RunID       string  `json:"run_id,omitempty"`   // telemetry run, when one was attached
	WallSeconds float64 `json:"wall_seconds"`       // wall time of the fresh simulation
	Generated   string  `json:"generated"`          // RFC3339 archive time

	// The deterministic result.
	Stats    stats.Sim      `json:"stats"`
	MemCheck uint64         `json:"mem_check"`
	Attrib   *AttribSummary `json:"attrib,omitempty"`
	// IntRegs is the architectural integer register file at halt. Together
	// with Stats and MemCheck it reconstructs the full sta.Result, which lets
	// a resumed sweep answer a cell from the archive without re-simulating
	// (see harness.ArchivedResults). Manifests written before this field
	// existed omit it, and those cells are simulated again.
	IntRegs []int64 `json:"int_regs,omitempty"`

	// Artifacts maps artifact kind ("metrics", "attrib", "spans") to the
	// path the producing run exported it at.
	Artifacts map[string]string `json:"artifacts,omitempty"`
}

// IPC returns the archived run's committed instructions per cycle.
func (m *Manifest) IPC() float64 { return m.Stats.IPC() }

// HardwareCostKB is the Pareto cost model: total SRAM devoted to the
// speculation-visible memory hierarchy, in KB — per-TU L1 data arrays plus
// per-TU side buffers plus the shared L2. It deliberately ignores logic
// (identical across the paper's configurations) so the frontier answers
// the paper's own question: what does the WEC buy per KB of storage?
func (m *Manifest) HardwareCostKB() float64 {
	side := float64(m.SideEntries*m.L1Block) / 1024
	if m.SideKind == "none" {
		side = 0
	}
	return float64(m.TUs)*(float64(m.L1KB)+side) + float64(m.L2KB)
}

// MemoKey renders the harness memoization key for a (bench, cfg) pair.
// This is the same rendering internal/harness memoizes and journals under,
// re-exported here so every archive producer derives identical content
// addresses.
func MemoKey(bench string, cfg sta.Config) string {
	return fmt.Sprintf("%s|%+v", bench, cfg)
}

// MemoKeySampled renders the memoization key of a sampled run: the detailed
// key plus the canonical sampling suffix. Sampled and detailed runs of the
// same machine therefore hash to different CfgHash directories and can
// never be silently paired as equals.
func MemoKeySampled(bench string, cfg sta.Config, warmup, measure, period uint64) string {
	return MemoKey(bench, cfg) + "|" + stats.SampleKey(warmup, measure, period)
}

// ShortKey compresses a memo key into the 8-hex-digit tag used by metrics
// and attribution export names, ledger keys, and telemetry span configs.
func ShortKey(memoKey string) string {
	h := fnv.New32a()
	h.Write([]byte(memoKey))
	return fmt.Sprintf("%08x", h.Sum32())
}

// CfgHash content-addresses the configuration part of a memo key (the
// portion after the first '|', i.e. bench-independent).
func CfgHash(memoKey string) string {
	cfg := memoKey
	if i := strings.IndexByte(memoKey, '|'); i >= 0 {
		cfg = memoKey[i+1:]
	}
	h := fnv.New64a()
	h.Write([]byte(cfg))
	return fmt.Sprintf("c%016x", h.Sum64())
}

// CellKey names one archived cell.
func CellKey(bench string, scale int, cfgHash string) string {
	return fmt.Sprintf("%s/%s-s%d", cfgHash, bench, scale)
}

// New builds a manifest for one completed cell. The caller fills the
// provenance fields it knows (Tool, Seed, RunID, WallSeconds, Artifacts)
// on the returned value before Put. A result carrying a sampled estimate
// keys under the sampled memo key automatically.
func New(bench string, scale int, cfg sta.Config, res *sta.Result) *Manifest {
	mk := MemoKey(bench, cfg)
	sampling := ""
	if sp := res.Stats.Sampled; sp != nil {
		mk += "|" + sp.Key()
		sampling = sp.Key()
	}
	ch := CfgHash(mk)
	name := "custom"
	if n, ok := config.Infer(cfg); ok {
		name = string(n)
	}
	return &Manifest{
		V:           ManifestVersion,
		CellKey:     CellKey(bench, scale, ch),
		Bench:       bench,
		Scale:       scale,
		Config:      name,
		CfgHash:     ch,
		ShortKey:    ShortKey(mk),
		MemoKey:     mk,
		TUs:         cfg.NumTUs,
		SideKind:    cfg.Mem.Side.String(),
		SideEntries: cfg.Mem.SideEntries,
		L1KB:        cfg.Mem.L1DSize / 1024,
		L1Assoc:     cfg.Mem.L1DAssoc,
		L1Block:     cfg.Mem.L1DBlock,
		L2KB:        cfg.Mem.L2Size / 1024,
		MemLat:      cfg.Mem.MemLat,
		Sampling:    sampling,
		Generated:   time.Now().UTC().Format(time.RFC3339),
		Stats:       res.Stats,
		MemCheck:    res.MemCheck,
		IntRegs:     append([]int64(nil), res.IntRegs[:]...),
	}
}

// GitRev returns the repository's short HEAD revision, or "" when the
// producing binary runs outside a git checkout (or git is unavailable).
// Best-effort provenance only: archives must not fail over it.
func GitRev() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(out))
}
