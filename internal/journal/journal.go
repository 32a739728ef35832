// Package journal is the crash-recovery log behind the distributed
// campaign coordinator and the adversarial search: an append-only JSONL
// file whose first line is a header pinning it to one exact run, followed
// by one flushed line per completed unit of work.
//
// The package owns the file mechanics — replay, torn-tail handling,
// header writing, line flushing. Policy stays with the caller: which
// header to accept, and what a replayed or duplicate entry means.
//
// A crash can tear only the final line (no trailing newline). Open drops
// that line and truncates the file back to its last complete line, so
// the next append starts a fresh line and a journal resumed mid-run and
// driven to completion is byte-identical to one written in a single run.
// A journal torn inside its header is treated as fresh and gets a new
// header. Any malformed complete line is real corruption and fails
// loudly.
package journal

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
)

// Journal is an open journal. An empty-path journal is in-memory:
// nothing is replayed and Append writes nothing. All access must come
// from one goroutine.
type Journal struct {
	f *os.File
	w *bufio.Writer
}

// Open opens (or creates) the journal at path and replays it. A fresh
// journal starts with header as its first line. An existing journal's
// first line is decoded into an H and handed to accept, which rejects a
// foreign file or a journal written for a different run; every later
// complete line is decoded into an E and handed to replay with its
// 1-based line number, in file order. An error from accept or replay
// aborts the open and is returned as is; a line that does not decode is
// reported as corrupt.
func Open[H, E any](path string, header H, accept func(H) error, replay func(line int, e E) error) (*Journal, error) {
	if path == "" {
		return &Journal{}, nil
	}
	existing, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return nil, fmt.Errorf("journal: %w", err)
	}
	keep, err := replayLines(existing, accept, replay)
	if err != nil {
		return nil, err
	}

	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	// Truncate any torn tail so appends continue from the last complete
	// line.
	if err := f.Truncate(int64(keep)); err != nil {
		f.Close()
		return nil, fmt.Errorf("journal: %w", err)
	}
	if _, err := f.Seek(int64(keep), 0); err != nil {
		f.Close()
		return nil, fmt.Errorf("journal: %w", err)
	}
	j := &Journal{f: f, w: bufio.NewWriter(f)}
	if keep == 0 {
		if err := j.Append(header); err != nil {
			f.Close()
			return nil, err
		}
	}
	return j, nil
}

// replayLines replays data's complete lines and returns the byte length
// of that complete-line prefix (0 when not even the header survived).
func replayLines[H, E any](data []byte, accept func(H) error, replay func(line int, e E) error) (int, error) {
	lines := bytes.Split(data, []byte("\n"))
	// A well-formed journal ends with '\n', so the last split element is
	// empty; anything else is a torn tail.
	complete := lines[:len(lines)-1]
	if len(complete) == 0 {
		return 0, nil
	}
	var hdr H
	if err := json.Unmarshal(complete[0], &hdr); err != nil {
		return 0, fmt.Errorf("journal: bad header: %w", err)
	}
	if err := accept(hdr); err != nil {
		return 0, err
	}
	keep := len(complete[0]) + 1
	for i, line := range complete[1:] {
		var e E
		if err := json.Unmarshal(line, &e); err != nil {
			return 0, fmt.Errorf("journal line %d corrupt: %w", i+2, err)
		}
		if err := replay(i+2, e); err != nil {
			return 0, err
		}
		keep += len(line) + 1
	}
	return keep, nil
}

// Append writes v as one JSONL line and flushes it; a no-op on an
// in-memory journal.
func (j *Journal) Append(v any) error {
	if j.w == nil {
		return nil
	}
	line, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("journal: encode: %w", err)
	}
	if _, err := j.w.Write(append(line, '\n')); err != nil {
		return fmt.Errorf("journal write: %w", err)
	}
	if err := j.w.Flush(); err != nil {
		return fmt.Errorf("journal flush: %w", err)
	}
	return nil
}

// Close flushes and closes the backing file, if any.
func (j *Journal) Close() error {
	if j.f == nil {
		return nil
	}
	if err := j.w.Flush(); err != nil {
		j.f.Close()
		return err
	}
	return j.f.Close()
}
