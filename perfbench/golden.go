package main

import (
	"embed"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// goldenFS holds the recorded outputs of every workload's input sets.
//
//go:embed golden/*.json
var goldenFS embed.FS

// goldenSet pins one input set's outputs.
type goldenSet struct {
	Cells  []string `json:"cells"`
	Report string   `json:"report,omitempty"`
}

// goldenFile is one workload's recorded outputs, indexed by input set.
type goldenFile struct {
	Workload string      `json:"workload"`
	Sets     []goldenSet `json:"sets"`
}

func loadGolden(name string) (*goldenFile, error) {
	b, err := goldenFS.ReadFile("golden/" + name + ".json")
	if err != nil {
		return nil, fmt.Errorf("perfbench: no golden outputs for %s: %w", name, err)
	}
	var g goldenFile
	if err := json.Unmarshal(b, &g); err != nil {
		return nil, fmt.Errorf("perfbench: golden/%s.json: %w", name, err)
	}
	if len(g.Sets) != inputSets {
		return nil, fmt.Errorf("perfbench: golden/%s.json records %d input sets, want %d", name, len(g.Sets), inputSets)
	}
	return &g, nil
}

// check counts the cells whose outputs differ from the golden set: a
// cell fails when it errored, reported a failed fault injection, its
// output hash differs, or the report its round rendered differs. It
// returns up to three reasons for the log.
func check(o outputs, g goldenSet) (failed int, reasons []string) {
	fail := func(why string) {
		failed++
		if len(reasons) < 3 {
			reasons = append(reasons, why)
		}
	}
	for i, h := range o.cells {
		switch {
		case h == "":
			fail(fmt.Sprintf("cell %d: run failed", i))
		case o.bad[i]:
			fail(fmt.Sprintf("cell %d: failed fault injection", i))
		case i >= len(g.Cells) || h != g.Cells[i]:
			fail(fmt.Sprintf("cell %d: output %s differs from golden", i, h))
		case o.report != g.Report:
			fail(fmt.Sprintf("cell %d: campaign report %q differs from golden", i, o.report))
		}
	}
	return failed, reasons
}

// writeGolden records a workload's outputs for every input set.
func writeGolden(dir string, g goldenFile) error {
	b, err := json.MarshalIndent(g, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, g.Workload+".json"), append(b, '\n'), 0o644)
}
