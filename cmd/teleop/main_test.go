package main

import "testing"

// TestLocalDemoCompletes drives the local demo end to end: an
// in-process hub on a loopback listener, the station over real TCP, and
// a delayed, lossy netem link. report fails unless the session ends
// "completed".
func TestLocalDemoCompletes(t *testing.T) {
	if err := run([]string{"-addr", "127.0.0.1:0", "-duration", "2s", "-delay", "25ms", "-drop", "0.02"}); err != nil {
		t.Fatal(err)
	}
}
