package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeRecords(t *testing.T, path string, recs ...record) {
	t.Helper()
	var buf bytes.Buffer
	for _, r := range recs {
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(append(b, '\n'))
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestCompareRefusesAnotherHost(t *testing.T) {
	dir := t.TempDir()
	here := hostStamp()
	there := here
	there.CPUModel = "some other CPU"
	m := map[string]metric{"wall_s": {1, "s"}}
	oldPath, newPath := filepath.Join(dir, "old.jsonl"), filepath.Join(dir, "new.jsonl")
	writeRecords(t, oldPath, record{Workload: "hub-delta", Host: here, Metrics: m})
	writeRecords(t, newPath, record{Workload: "hub-delta", Host: there, Metrics: m})
	var out bytes.Buffer
	err := compare(&out, oldPath, newPath)
	if err == nil || !strings.Contains(err.Error(), "cpu_model") {
		t.Fatalf("compare across hosts: err = %v, want a refusal naming cpu_model", err)
	}

	writeRecords(t, newPath,
		record{Workload: "hub-delta", Host: here, Metrics: map[string]metric{"wall_s": {1.5, "s"}}},
		record{Workload: "hub-delta", Host: here, Metrics: map[string]metric{"wall_s": {2.5, "s"}}})
	out.Reset()
	if err := compare(&out, oldPath, newPath); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "+100.00%") {
		t.Errorf("compare of medians 1 → 2 should report +100%%:\n%s", out.String())
	}
}
