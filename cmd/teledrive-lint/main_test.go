package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

func TestSkippedPath(t *testing.T) {
	cases := []struct {
		path string
		skip bool
	}{
		{"internal/analysis", false},
		{"internal/analysis/testdata", true},
		{"internal/analysis/testdata/src/clean", true},
		{"../../internal/analysis/testdata/src/clean", true},
		{".git/objects", true},
		{"_build/pkg", true},
		{"examples/internal", true},
		{"examples/internal/pair", true},
		{"examples/quickstart", false},
		{"internal/bridge", false}, // "internal" outside examples/ is fine
		{".", false},
		{"..", false},
		{"../..", false},
		{"../../cmd", false},
	}
	for _, c := range cases {
		if got := skippedPath(c.path); got != c.skip {
			t.Errorf("skippedPath(%q) = %v, want %v", c.path, got, c.skip)
		}
	}
}

// TestExpandPatternsRejectsFixturePaths pins the satellite fix: naming
// a fixture or support tree explicitly is an error, not a way to sneak
// rule-violating packages into a run.
func TestExpandPatternsRejectsFixturePaths(t *testing.T) {
	for _, pat := range []string{
		filepath.Join("..", "..", "internal", "analysis", "testdata", "src", "clean"),
		filepath.Join("..", "..", "internal", "analysis", "testdata") + "/...",
		filepath.Join("..", "..", "examples", "internal", "pair"),
	} {
		if _, err := expandPatterns([]string{pat}); err == nil {
			t.Errorf("expandPatterns(%q) succeeded, want skip error", pat)
		}
	}
}

// TestExpandPatternsWalkAboveCwd pins the ".." regression: a recursive
// walk rooted above the current directory must actually descend — the
// old name-based skip treated the root's ".." basename as a hidden
// directory and silently expanded to nothing.
func TestExpandPatternsWalkAboveCwd(t *testing.T) {
	dirs, err := expandPatterns([]string{"../..."})
	if err != nil {
		t.Fatal(err)
	}
	if len(dirs) < 2 {
		t.Fatalf("walk from .. found %d package dirs, want at least two cmd packages: %v", len(dirs), dirs)
	}
	for _, d := range dirs {
		if strings.Contains(filepath.ToSlash(d), "testdata") {
			t.Errorf("fixture dir leaked into expansion: %s", d)
		}
	}
}

// TestRecursiveWalkSkipsFixtureTrees lints the whole module and
// verifies no fixture package leaks in (fixtures deliberately violate
// the rules, so a leak would show up as diagnostics from testdata
// paths).
func TestRecursiveWalkSkipsFixtureTrees(t *testing.T) {
	dirs, err := expandPatterns([]string{"../../..."})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range dirs {
		p := filepath.ToSlash(d)
		if strings.Contains(p, "testdata") || strings.Contains(p, "examples/internal") {
			t.Errorf("skipped tree leaked into expansion: %s", d)
		}
	}
	if len(dirs) < 10 {
		t.Fatalf("module walk found only %d dirs — walk is broken: %v", len(dirs), dirs)
	}
}

// TestJSONOutputDeterministic runs the linter twice over a fixture with
// known violations and requires byte-identical, (file, line, column,
// rule)-sorted JSON.
func TestJSONOutputDeterministic(t *testing.T) {
	dir := t.TempDir()
	src := `package tmpfix

import (
	"math/rand"
	"time"
)

func violate() (time.Time, float64) {
	return time.Now(), rand.Float64()
}
`
	if err := os.WriteFile(filepath.Join(dir, "tmpfix.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	runOnce := func() (string, int) {
		var out, errb bytes.Buffer
		code := run([]string{"-json", dir}, &out, &errb)
		if errb.Len() != 0 {
			t.Fatalf("unexpected stderr: %s", errb.String())
		}
		return out.String(), code
	}
	first, code1 := runOnce()
	second, code2 := runOnce()
	if code1 != 1 || code2 != 1 {
		t.Fatalf("exit codes = %d, %d, want 1 (diagnostics found)", code1, code2)
	}
	if first != second {
		t.Fatalf("JSON output not byte-identical:\n--- first\n%s\n--- second\n%s", first, second)
	}
	var diags []jsonDiag
	if err := json.Unmarshal([]byte(first), &diags); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, first)
	}
	if len(diags) != 2 {
		t.Fatalf("want 2 diagnostics (wallclock, globalrand), got %d: %v", len(diags), diags)
	}
	sorted := sort.SliceIsSorted(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return a.Rule < b.Rule
	})
	if !sorted {
		t.Fatalf("diagnostics not sorted by (file, line, column, rule): %v", diags)
	}
}

// TestJSONCleanRunEmitsEmptyArray pins the no-findings shape: [] with
// exit 0, never null.
func TestJSONCleanRunEmitsEmptyArray(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-json", "."}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit = %d, stderr = %s, stdout = %s", code, errb.String(), out.String())
	}
	if got := strings.TrimSpace(out.String()); got != "[]" {
		t.Fatalf("clean -json output = %q, want []", got)
	}
}
