// Package journal is the crash-safe JSON-lines file under the results
// ledger, the run archive's index and the telemetry span log.
//
// A journal is append-only, one record per line, flushed as one write per
// record, so a killed process loses at most the line it was writing. Open
// replays the intact lines in order and cuts the first torn or rejected
// line and everything after it. The cut reaches stable storage (file and
// directory fsync) before anything is appended behind it: otherwise power
// loss after new appends could resurrect stale tail bytes past them,
// corrupting the journal mid-file instead of at its end.
package journal

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"sync"
)

// Format describes one journal's lines.
type Format struct {
	// Header is the first line of a new journal. Nil means the journal
	// has no header line and every line is an entry.
	Header []byte
	// Check validates an existing journal's first line when Header is
	// set. Open returns its error unchanged and leaves the file as it is.
	Check func(line []byte) error
	// Entry replays one entry line (without its newline), in file order.
	// Returning false rejects the line: Open cuts it and everything after
	// it, as it does a torn tail.
	Entry func(line []byte) bool
}

// Journal is an open journal positioned for appends. Appends are
// serialized internally; one Journal may back a whole worker pool.
type Journal struct {
	mu sync.Mutex
	f  *os.File
}

// Open opens (creating if needed) the journal at path, replays it through
// fm, cuts a torn or rejected tail durably, and writes the header to a
// journal that has no intact first line. I/O failures are returned as the
// os package reports them.
func Open(path string, fm Format) (*Journal, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	j := &Journal{f: f}
	if err := j.replay(path, fm); err != nil {
		f.Close()
		return nil, err
	}
	return j, nil
}

func (j *Journal) replay(path string, fm Format) error {
	data, err := io.ReadAll(j.f)
	if err != nil {
		return err
	}
	off := 0
	for off < len(data) {
		nl := bytes.IndexByte(data[off:], '\n')
		if nl < 0 {
			break // torn tail: the append was interrupted mid-line
		}
		line := data[off : off+nl]
		if off == 0 && fm.Header != nil {
			if err := fm.Check(line); err != nil {
				return err
			}
		} else if !fm.Entry(line) {
			break // corrupt entry: drop it and everything after
		}
		off += nl + 1
	}
	if off < len(data) {
		if err := j.f.Truncate(int64(off)); err != nil {
			return err
		}
		if err := durable(j.f, path); err != nil {
			return err
		}
	}
	if off == 0 && fm.Header != nil {
		return j.Append(fm.Header)
	}
	return nil
}

// durable fsyncs a just-cut journal and then its directory, so the cut
// survives power loss. It is a variable so the tests that cut journals at
// every byte offset can skip the disk flushes.
var durable = func(f *os.File, path string) error {
	if err := f.Sync(); err != nil {
		return err
	}
	d, err := os.Open(filepath.Dir(path))
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// Append writes line plus a newline as one write. It does not fsync.
// Appending to a closed journal returns os.ErrClosed.
func (j *Journal) Append(line []byte) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return os.ErrClosed
	}
	_, err := j.f.Write(append(line, '\n'))
	return err
}

// Close closes the file; closing twice is a no-op.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	err := j.f.Close()
	j.f = nil
	return err
}
