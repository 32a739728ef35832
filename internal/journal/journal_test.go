package journal

import (
	"errors"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

type testHeader struct {
	Journal string `json:"journal"`
	Digest  string `json:"digest"`
}

type testEntry struct {
	N int `json:"n"`
}

const testMagic = "teledrive-test"

// open opens the journal at path for digest "d" and returns the entries
// it replayed.
func open(t *testing.T, path string) (*Journal, []int) {
	t.Helper()
	var got []int
	j, err := Open(path, testHeader{Journal: testMagic, Digest: "d"},
		func(h testHeader) error {
			if h.Journal != testMagic || h.Digest != "d" {
				return errors.New("foreign journal")
			}
			return nil
		},
		func(_ int, e testEntry) error {
			got = append(got, e.N)
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	return j, got
}

func appendAll(t *testing.T, j *Journal, ns ...int) {
	t.Helper()
	for _, n := range ns {
		if err := j.Append(testEntry{N: n}); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
}

func tear(t *testing.T, path, partial string) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(partial); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestTornTailResumeAppendResume: a crash tears the last entry; the
// resumed journal drops it, appends after the last complete line, and
// resumes again cleanly — byte-identical to a journal never torn.
func TestTornTailResumeAppendResume(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "j.jsonl")
	j, _ := open(t, path)
	appendAll(t, j, 1, 2)
	tear(t, path, `{"n":`)

	j, got := open(t, path)
	if !slices.Equal(got, []int{1, 2}) {
		t.Fatalf("first resume replayed %v, want [1 2]", got)
	}
	appendAll(t, j, 3)

	j, got = open(t, path)
	if !slices.Equal(got, []int{1, 2, 3}) {
		t.Fatalf("second resume replayed %v, want [1 2 3]", got)
	}
	j.Close()

	clean := filepath.Join(dir, "clean.jsonl")
	j, _ = open(t, clean)
	appendAll(t, j, 1, 2, 3)
	a, _ := os.ReadFile(path)
	b, _ := os.ReadFile(clean)
	if string(a) != string(b) {
		t.Fatalf("resumed journal differs from an untorn one:\n%s\nvs\n%s", a, b)
	}
}

// TestTornHeaderResumeAppendResume: a crash tears the header itself; the
// resumed journal starts fresh with a new header, and the next resume
// accepts it.
func TestTornHeaderResumeAppendResume(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	if err := os.WriteFile(path, []byte(`{"journal":"teledr`), 0o644); err != nil {
		t.Fatal(err)
	}
	j, got := open(t, path)
	if len(got) != 0 {
		t.Fatalf("torn header replayed %v", got)
	}
	appendAll(t, j, 7)

	j, got = open(t, path)
	defer j.Close()
	if !slices.Equal(got, []int{7}) {
		t.Fatalf("resume after torn header replayed %v, want [7]", got)
	}
}

// TestCallerPolicyErrorsPropagate: accept and replay errors abort the
// open unchanged, and the file is left as it was.
func TestCallerPolicyErrorsPropagate(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	j, _ := open(t, path)
	appendAll(t, j, 1)
	before, _ := os.ReadFile(path)

	errForeign, errDup := errors.New("foreign"), errors.New("dup")
	if _, err := Open(path, testHeader{}, func(testHeader) error { return errForeign },
		func(int, testEntry) error { return nil }); err != errForeign {
		t.Fatalf("accept error: got %v", err)
	}
	if _, err := Open(path, testHeader{}, func(testHeader) error { return nil },
		func(line int, _ testEntry) error {
			if line != 2 {
				t.Errorf("first entry reported as line %d, want 2", line)
			}
			return errDup
		}); err != errDup {
		t.Fatalf("replay error: got %v", err)
	}
	after, _ := os.ReadFile(path)
	if string(before) != string(after) {
		t.Fatal("a refused open modified the journal")
	}
}
