package search

import (
	"fmt"

	journalfile "teledrive/internal/journal"
)

// journalMagic identifies an adversarial-search journal file.
const journalMagic = "teledrive-search"

// journalHeader is the first JSONL line: it pins the journal to one
// exact search configuration (by digest), so a resumed search can never
// silently mix trajectories from a different seed, space, or scoring.
type journalHeader struct {
	Journal string `json:"journal"`
	V       int    `json:"v"`
	Digest  string `json:"digest"`
}

// Entry is one evaluated cell of the search trajectory. The trajectory
// is a pure function of the search options, so (Gen, Slot) fully
// identifies a cell: a resumed search re-proposes the same points and
// reuses the journaled Signals instead of re-simulating.
type Entry struct {
	Gen   int   `json:"gen"`
	Slot  int   `json:"slot"`
	Point []int `json:"point"`
	// Index is the point's flattened grid index.
	Index int `json:"index"`
	// Weight is the Horvitz–Thompson importance weight u(x)/q(x) of this
	// draw.
	Weight float64 `json:"weight"`
	// Uniform marks draws taken on the eps-mixture's uniform branch (the
	// held-out cross-check stratum).
	Uniform bool `json:"uniform,omitempty"`
	// Criticality is the cell's scalar score under the search weights.
	Criticality float64 `json:"crit"`
	Signals     Signals `json:"signals"`
}

// GenSlot keys a journal entry by its trajectory position.
type GenSlot struct{ Gen, Slot int }

// Journal is the search's crash-recovery log (internal/journal): an
// append-only JSONL file with one flushed line per evaluated cell,
// written strictly in (gen, slot) order. Because the search trajectory
// is deterministic, a journal resumed mid-run and driven to completion
// is byte-identical to one written in a single run — the same-seed
// identity check in CI compares the files directly. All access is from
// the driver loop.
type Journal struct {
	file    *journalfile.Journal
	entries map[GenSlot]Entry
}

// OpenJournal opens (or creates) the journal at path and replays it.
// digest identifies the current search configuration; a journal written
// for a different configuration, or one holding a (gen, slot) twice, is
// an error, not a silent restart. An empty path returns an in-memory
// journal (no crash recovery).
func OpenJournal(path, digest string) (*Journal, error) {
	j := &Journal{entries: make(map[GenSlot]Entry)}
	accept := func(hdr journalHeader) error {
		if hdr.Journal != journalMagic {
			return fmt.Errorf("journal: not a search journal (bad header)")
		}
		if hdr.Digest != digest {
			return fmt.Errorf("journal was written for a different search (journal digest %.12s…, search digest %.12s…) — refusing to resume", hdr.Digest, digest)
		}
		return nil
	}
	replay := func(line int, e Entry) error {
		key := GenSlot{e.Gen, e.Slot}
		if _, dup := j.entries[key]; dup {
			return fmt.Errorf("journal line %d: duplicate cell gen %d slot %d", line, e.Gen, e.Slot)
		}
		j.entries[key] = e
		return nil
	}
	f, err := journalfile.Open(path, journalHeader{Journal: journalMagic, V: 1, Digest: digest}, accept, replay)
	if err != nil {
		return nil, fmt.Errorf("search: %w", err)
	}
	j.file = f
	return j, nil
}

// Cached returns the journaled entry for a trajectory position, if any.
func (j *Journal) Cached(gen, slot int) (Entry, bool) {
	e, ok := j.entries[GenSlot{gen, slot}]
	return e, ok
}

// Len counts journaled cells.
func (j *Journal) Len() int { return len(j.entries) }

// Append records one evaluated cell; when backed by a file it is
// written and flushed as one JSONL line. Appending a position that is
// already journaled is a no-op (the resume path re-proposes journaled
// cells).
func (j *Journal) Append(e Entry) error {
	key := GenSlot{e.Gen, e.Slot}
	if _, dup := j.entries[key]; dup {
		return nil
	}
	j.entries[key] = e
	if err := j.file.Append(e); err != nil {
		return fmt.Errorf("search: %w", err)
	}
	return nil
}

// Close flushes and closes the backing file, if any.
func (j *Journal) Close() error { return j.file.Close() }
