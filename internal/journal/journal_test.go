package journal

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// collect opens path with a header-checked format and returns the replayed
// entries.
func collect(t *testing.T, path string, header string) (*Journal, []string) {
	t.Helper()
	var got []string
	j, err := Open(path, Format{
		Header: []byte(header),
		Check: func(line []byte) error {
			if string(line) != header {
				return errors.New("bad header " + string(line))
			}
			return nil
		},
		Entry: func(line []byte) bool {
			if !strings.HasPrefix(string(line), "e") {
				return false
			}
			got = append(got, string(line))
			return true
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return j, got
}

func readFile(t *testing.T, path string) string {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

func TestHeaderWrittenOnceAndEntriesReplayed(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	j, got := collect(t, path, "H")
	if len(got) != 0 {
		t.Fatalf("fresh journal replayed %q", got)
	}
	for _, e := range []string{"e1", "e2"} {
		if err := j.Append([]byte(e)); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()
	j, got = collect(t, path, "H")
	j.Close()
	if strings.Join(got, ",") != "e1,e2" {
		t.Fatalf("replayed %q, want [e1 e2]", got)
	}
	if s := readFile(t, path); s != "H\ne1\ne2\n" {
		t.Fatalf("file %q", s)
	}
}

// TestRejectedEntryCutsTheRest: a complete but rejected line is cut along
// with every line after it, and appends land right behind the last good
// entry.
func TestRejectedEntryCutsTheRest(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	if err := os.WriteFile(path, []byte("H\ne1\nXX\ne3\ne4"), 0o644); err != nil {
		t.Fatal(err)
	}
	j, got := collect(t, path, "H")
	if strings.Join(got, ",") != "e1" {
		t.Fatalf("replayed %q, want [e1]", got)
	}
	if err := j.Append([]byte("e5")); err != nil {
		t.Fatal(err)
	}
	j.Close()
	if s := readFile(t, path); s != "H\ne1\ne5\n" {
		t.Fatalf("file %q", s)
	}
}

// TestCheckErrorLeavesFileAlone: a refused header is reported unchanged
// and the file is not cut or rewritten.
func TestCheckErrorLeavesFileAlone(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	const body = "OLD\ne1\ntorn"
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	bad := errors.New("refused")
	_, err := Open(path, Format{
		Header: []byte("H"),
		Check:  func([]byte) error { return bad },
		Entry:  func([]byte) bool { return true },
	})
	if err != bad {
		t.Fatalf("Open error %v, want the Check error unchanged", err)
	}
	if s := readFile(t, path); s != body {
		t.Fatalf("file changed to %q", s)
	}
}

// TestHeaderlessJournal: without a Header every line is an entry, and a
// torn first line leaves an empty file rather than a header.
func TestHeaderlessJournal(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	if err := os.WriteFile(path, []byte("e1\ne2\ne3-torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	var got []string
	j, err := Open(path, Format{Entry: func(line []byte) bool {
		got = append(got, string(line))
		return true
	}})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append([]byte("e4")); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if strings.Join(got, ",") != "e1,e2" {
		t.Fatalf("replayed %q, want [e1 e2]", got)
	}
	if s := readFile(t, path); s != "e1\ne2\ne4\n" {
		t.Fatalf("file %q", s)
	}
	if err := os.WriteFile(path, []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	j, err = Open(path, Format{Entry: func([]byte) bool { return true }})
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
	if s := readFile(t, path); s != "" {
		t.Fatalf("file %q, want empty", s)
	}
}

func TestAppendAfterClose(t *testing.T) {
	j, _ := collect(t, filepath.Join(t.TempDir(), "j.jsonl"), "H")
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if err := j.Append([]byte("e1")); !errors.Is(err, os.ErrClosed) {
		t.Fatalf("Append after Close: %v, want os.ErrClosed", err)
	}
}
