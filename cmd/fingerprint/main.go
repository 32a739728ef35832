// Command fingerprint regenerates or checks the golden trace
// fingerprints that pin run-machinery refactors to bit-identical
// simulated trajectories (DESIGN.md §9). Each canonical cell
// (rds.FingerprintCells) is driven end-to-end and reduced to a SHA-256
// digest over every trace float plus the outcome scalars.
//
// Usage:
//
//	fingerprint [-golden internal/session/testdata/fingerprints.json] [-update]
//
// Without -update it diffs the freshly computed digests against the
// golden file and exits 1 on any mismatch; with -update it rewrites
// the golden file. Arena reuse and multi-tenant hosting are pinned to
// the same goldens by tests: TestHubSessionsBitIdentical runs every
// cell twice through one hub, the second pass on recycled arenas.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"

	"teledrive/internal/rds"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "fingerprint:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("fingerprint", flag.ContinueOnError)
	var (
		golden = fs.String("golden", "internal/session/testdata/fingerprints.json", "golden fingerprint file")
		update = fs.Bool("update", false, "rewrite the golden file instead of diffing against it")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	fresh := make(map[string]string)
	for _, cell := range rds.FingerprintCells() {
		fp, err := rds.RunFingerprint(cell)
		if err != nil {
			return err
		}
		fresh[cell.Name] = fp
		fmt.Printf("ran  %-40s %.16s…\n", cell.Name, fp)
	}
	return settle(fresh, *golden, *update)
}

// settle writes or diffs the computed digests against the golden file.
func settle(fresh map[string]string, golden string, update bool) error {
	if update {
		// json.Marshal sorts map keys: the golden file is deterministic.
		buf, err := json.MarshalIndent(fresh, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(golden, append(buf, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %d fingerprints to %s\n", len(fresh), golden)
		return nil
	}

	buf, err := os.ReadFile(golden)
	if err != nil {
		return fmt.Errorf("reading golden file (run with -update to create it): %w", err)
	}
	var want map[string]string
	if err := json.Unmarshal(buf, &want); err != nil {
		return fmt.Errorf("golden file %s: %w", golden, err)
	}

	bad := 0
	for _, name := range keys(want) {
		got, ok := fresh[name]
		switch {
		case !ok:
			fmt.Printf("MISSING %-40s cell no longer defined\n", name)
			bad++
		case got != want[name]:
			fmt.Printf("DIFF    %-40s\n  golden %s\n  fresh  %s\n", name, want[name], got)
			bad++
		default:
			fmt.Printf("OK      %-40s\n", name)
		}
	}
	for _, name := range keys(fresh) {
		if _, ok := want[name]; !ok {
			fmt.Printf("NEW     %-40s not in golden file (run -update)\n", name)
			bad++
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d fingerprint(s) diverge from %s", bad, golden)
	}
	fmt.Printf("all %d fingerprints match %s\n", len(want), golden)
	return nil
}

func keys(m map[string]string) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
