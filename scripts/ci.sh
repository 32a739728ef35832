#!/bin/sh
# ci.sh — the one-command verification gate for a PR branch:
# build + vet + lint + race + race-hub + race-search + claims +
# fingerprint + perfbench-check, in order, stopping at the first
# failure. Slower batteries are separate opt-ins: `make fuzz`
# (hostile-input budget), `make race-dist` (full distributed campaign
# battery over localhost TCP), `make bench` (paper tables).
#
# Usage: scripts/ci.sh   (or: make ci)
set -eu

cd "$(dirname "$0")/.."

stage() {
	echo "==> $*"
}

stage make build
make build
stage make vet
make vet
stage make lint
make lint
stage make race
make race
stage "make race-hub (internal/hub chaos battery + cmd/teleop local demo)"
make race-hub
stage make race-search
make race-search
stage "make claims (paper claims on seeds 1-4)"
make claims
stage make fingerprint
make fingerprint
stage "make perfbench-check (the perfbench module against this API)"
make perfbench-check

stage "ci: all gates passed"
