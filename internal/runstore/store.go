package runstore

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"

	"repro/internal/journal"
)

// indexVersion is bumped whenever the on-disk index format changes.
const indexVersion = 1

// indexHeader is the first line of the archive index journal.
type indexHeader struct {
	V int `json:"v"`
}

// Store is an open run archive rooted at one directory. Puts are
// serialized internally; one Store may back a whole harness worker pool.
type Store struct {
	mu    sync.Mutex
	root  string
	j     *journal.Journal // index journal
	cells map[string]*Manifest
}

// Open opens (creating if needed) the archive rooted at dir and loads its
// index. A truncated trailing line — a process killed mid-append — is
// discarded and the journal truncated back to the last intact entry;
// replayed tails are harmless because entries are keyed and the last
// write for a cell wins.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("runstore: %w", err)
	}
	path := filepath.Join(dir, "index.jsonl")
	hdr, _ := json.Marshal(indexHeader{V: indexVersion})
	cells := make(map[string]*Manifest)
	j, err := journal.Open(path, journal.Format{
		Header: hdr,
		Check: func(line []byte) error {
			var h indexHeader
			if err := json.Unmarshal(line, &h); err != nil {
				return fmt.Errorf("%s: corrupt header (delete the file to start over): %w", path, err)
			}
			if h.V != indexVersion {
				return fmt.Errorf("%s was written at v%d, want v%d", path, h.V, indexVersion)
			}
			return nil
		},
		Entry: func(line []byte) bool {
			var m Manifest
			if err := json.Unmarshal(line, &m); err != nil || m.CellKey == "" {
				return false
			}
			cells[m.CellKey] = &m
			return true
		},
	})
	if err != nil {
		return nil, fmt.Errorf("runstore: %w", err)
	}
	return &Store{root: dir, j: j, cells: cells}, nil
}

// Root returns the archive's root directory.
func (s *Store) Root() string { return s.root }

// Len returns the number of archived cells.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.cells)
}

// Get returns the manifest archived under the cell key, or nil.
func (s *Store) Get(cellKey string) *Manifest {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cells[cellKey]
}

// All returns every archived manifest, sorted by cell key (deterministic
// for queries and goldens).
func (s *Store) All() []*Manifest {
	s.mu.Lock()
	out := make([]*Manifest, 0, len(s.cells))
	for _, m := range s.cells {
		out = append(out, m)
	}
	s.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].CellKey < out[j].CellKey })
	return out
}

// Put archives one manifest: the per-cell JSON file is written atomically
// (temp + rename), then the index journal appends. Re-archiving a cell
// whose deterministic result is unchanged is a no-op, so a resumed sweep
// replaying its ledger converges on exactly one manifest per cell; a
// changed result (same cell key, different counters — a real re-run)
// overwrites the file and appends a superseding index entry.
func (s *Store) Put(m *Manifest) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if prev, ok := s.cells[m.CellKey]; ok &&
		prev.MemoKey == m.MemoKey && prev.Stats == m.Stats && prev.MemCheck == m.MemCheck &&
		(m.Attrib == nil || (prev.Attrib != nil && *prev.Attrib == *m.Attrib)) &&
		(len(m.IntRegs) == 0 || slices.Equal(prev.IntRegs, m.IntRegs)) {
		// Identical deterministic result carrying no new attribution or
		// register snapshot: replayed ledger tails and re-runs converge on
		// the stored cell. A re-run that attaches the attribution collector
		// — or records the register file (the archive resume's input) — for
		// the first time falls through and supersedes.
		return nil
	}
	dir := filepath.Join(s.root, m.CfgHash)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("runstore: %w", err)
	}
	raw, err := json.MarshalIndent(m, "", " ")
	if err != nil {
		return fmt.Errorf("runstore: %w", err)
	}
	final := filepath.Join(dir, fmt.Sprintf("%s-s%d.json", m.Bench, m.Scale))
	tmp := final + ".tmp"
	if err := os.WriteFile(tmp, append(raw, '\n'), 0o644); err != nil {
		return fmt.Errorf("runstore: %w", err)
	}
	if err := os.Rename(tmp, final); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("runstore: %w", err)
	}
	line, err := json.Marshal(m)
	if err != nil {
		return fmt.Errorf("runstore: %w", err)
	}
	if err := s.j.Append(line); err != nil {
		return fmt.Errorf("runstore: %w", err)
	}
	s.cells[m.CellKey] = m
	return nil
}

// ManifestPath returns the per-cell JSON path a manifest was (or would be)
// materialized at.
func (s *Store) ManifestPath(m *Manifest) string {
	return filepath.Join(s.root, m.CfgHash, fmt.Sprintf("%s-s%d.json", m.Bench, m.Scale))
}

// Close flushes and closes the index journal.
func (s *Store) Close() error {
	if err := s.j.Close(); err != nil {
		return fmt.Errorf("runstore: %w", err)
	}
	return nil
}
