package campaignd

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"

	journalfile "teledrive/internal/journal"
	"teledrive/internal/rds"
)

// journalMagic identifies a campaignd checkpoint file.
const journalMagic = "teledrive-campaignd"

// journalHeader is the first JSONL line: it pins the journal to one
// exact plan (by digest), so a resumed coordinator can never silently
// mix checkpoints from a different seed, subject set, or binary.
type journalHeader struct {
	Journal string `json:"journal"`
	V       int    `json:"v"`
	Digest  string `json:"digest"`
	Cells   int    `json:"cells"`
}

// journalEntry is one completed cell: its index, the worker-measured
// wall-clock cost, and the full outcome JSON as produced by the worker.
// Appends are atomic at line granularity; a torn final line (the
// coordinator died mid-write) is dropped and truncated on load.
type journalEntry struct {
	Cell      int             `json:"cell"`
	Worker    string          `json:"worker,omitempty"`
	ElapsedNS int64           `json:"elapsed_ns"`
	Outcome   json.RawMessage `json:"outcome"`
}

// journal is the coordinator's crash-recovery log (internal/journal)
// plus the decoded outcome of every journaled cell. All access is from
// the coordinator event loop.
type journal struct {
	file     *journalfile.Journal
	outcomes map[int]*rds.Outcome
	elapsed  map[int]int64
}

// openJournal opens (or creates) the journal at path and replays it.
// digest/cells identify the current plan; a journal written for a
// different plan is an error, not a silent restart. A cell journaled
// twice (a crash window between journaling and acknowledging) keeps its
// first entry, even across restarts. An empty path returns an in-memory
// journal (no crash recovery — tests and one-shot runs).
func openJournal(path, digest string, cells int) (*journal, error) {
	j := &journal{
		outcomes: make(map[int]*rds.Outcome),
		elapsed:  make(map[int]int64),
	}
	accept := func(hdr journalHeader) error {
		if hdr.Journal != journalMagic {
			return fmt.Errorf("journal: not a campaignd journal (bad header)")
		}
		if hdr.Digest != digest {
			return fmt.Errorf("journal was written for a different plan (journal digest %.12s…, plan digest %.12s…) — refusing to resume", hdr.Digest, digest)
		}
		if hdr.Cells != cells {
			return fmt.Errorf("journal plan has %d cells, current plan has %d — refusing to resume", hdr.Cells, cells)
		}
		return nil
	}
	replay := func(line int, e journalEntry) error {
		if e.Cell < 0 || e.Cell >= cells {
			return fmt.Errorf("journal line %d: cell %d out of range", line, e.Cell)
		}
		if _, dup := j.outcomes[e.Cell]; dup {
			return nil // first write wins
		}
		out, err := decodeOutcome(e.Outcome)
		if err != nil {
			return fmt.Errorf("journal line %d: %w", line, err)
		}
		j.outcomes[e.Cell] = out
		j.elapsed[e.Cell] = e.ElapsedNS
		return nil
	}
	hdr := journalHeader{Journal: journalMagic, V: 1, Digest: digest, Cells: cells}
	f, err := journalfile.Open(path, hdr, accept, replay)
	if err != nil {
		return nil, fmt.Errorf("campaignd: %w", err)
	}
	j.file = f
	return j, nil
}

// append records one completed cell: the decoded outcome in memory and
// the raw entry as one flushed JSONL line.
func (j *journal) append(e journalEntry, out *rds.Outcome) error {
	j.outcomes[e.Cell] = out
	j.elapsed[e.Cell] = e.ElapsedNS
	if err := j.file.Append(e); err != nil {
		return fmt.Errorf("campaignd: %w", err)
	}
	return nil
}

func (j *journal) close() error { return j.file.Close() }

// decodeOutcome parses a worker-produced outcome JSON. The round-trip
// is exact: Go's JSON encoder emits the shortest float64 representation
// that parses back to the same bits, so a decoded run log fingerprints
// identically to the in-process original (the distributed-equivalence
// golden pins this).
func decodeOutcome(raw json.RawMessage) (*rds.Outcome, error) {
	if len(raw) == 0 {
		return nil, fmt.Errorf("campaignd: empty outcome")
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	var out rds.Outcome
	if err := dec.Decode(&out); err != nil && err != io.EOF {
		return nil, fmt.Errorf("campaignd: decode outcome: %w", err)
	}
	if out.Log == nil {
		return nil, fmt.Errorf("campaignd: outcome missing run log")
	}
	return &out, nil
}
