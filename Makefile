GO ?= go

.PHONY: build test vet lint lint-json race race-dist race-hub race-search claims fuzz check ci bench fingerprint fingerprint-update perfbench-check

# Tier-1 verification: everything must build, vet clean, lint clean,
# and pass.
build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Determinism and concurrency linter (cmd/teledrive-lint): nine
# repo-specific rules — wallclock, globalrand, maporderfloat, floateq,
# atomicmix, goroutineleak, errswallow, exhaustiveenvelope,
# locksimclock — that machine-check the invariants the golden/faulty
# comparison and the distributed campaign service depend on. See
# internal/analysis and DESIGN.md §6, §12.
lint:
	$(GO) run ./cmd/teledrive-lint ./...

# Machine-readable lint results: the same run as `lint`, emitted as a
# (file, line, column, rule)-sorted JSON array in LINT.json —
# byte-identical across runs on the same tree, so CI can diff it.
# `|| true` keeps the artifact writable when findings exist; the `lint`
# target is the gate.
lint-json:
	$(GO) run ./cmd/teledrive-lint -json ./... > LINT.json || true

test: vet lint
	$(GO) test ./...

# Race-detector pass over every package. The campaign worker pool, the
# core run path, and the validity sweep pool carry the concurrency, and
# their determinism tests exercise multi-worker execution under the
# detector. internal/campaignd runs in -short mode here: the tracker
# ledger, journal, and wire codec race on every check, while the
# multi-second localhost-TCP campaign battery stays in race-dist.
race:
	$(GO) test -race $$($(GO) list ./... | grep -v internal/campaignd)
	$(GO) test -race -short ./internal/campaignd

# Multi-tenant hub chaos battery under the race detector: served
# sessions over real localhost TCP with mid-frame connection kills,
# lossy-datagram delta resyncs, and concurrent join/leave churn — then
# cmd/teleop's local demo, a station driving an in-process served hub
# over a delayed, lossy netem link. Runs in CI (scripts/ci.sh) after
# the package race stage.
race-hub:
	$(GO) test -race -run 'TestHubServe|TestHubChaos|TestHubChurn|TestHubHostileBytes' -count=1 ./internal/hub
	$(GO) test -race -count=1 ./cmd/teleop

# Distributed-campaign battery under the race detector: the campaignd
# coordinator/worker protocol, the chaos suite (worker kill, coordinator
# kill + journal resume, dropped/duplicated result frames), and the
# distributed-equivalence golden. Split out because it runs real
# campaigns over localhost TCP and dominates a full `make race`.
race-dist:
	$(GO) test -race ./internal/campaignd

# Adversarial-search determinism battery under the race detector: the
# synthetic and real-drive any-worker-count identity tests, journal
# resume, and the CLI gate — then a same-seed double run of
# cmd/adversary (sequential vs pooled) whose reports must compare
# byte-identical. Runs in CI (scripts/ci.sh) after race-hub.
race-search:
	$(GO) test -race -count=1 -run 'TestSearchDeterministicAcrossWorkers|TestSimSearchDeterministicAcrossWorkers|TestJournalResume|TestHTEstimateUnbiased' ./internal/search
	$(GO) test -race -count=1 -run 'TestRunTinySearchDeterministic' ./cmd/adversary
	@tmp=$$(mktemp -d); \
	$(GO) run ./cmd/adversary -seed 4 -generations 2 -cells 4 -elites 2 -scenario follow-vehicle -workers 1 -progress=false -out $$tmp/a.txt && \
	$(GO) run ./cmd/adversary -seed 4 -generations 2 -cells 4 -elites 2 -scenario follow-vehicle -workers 4 -progress=false -out $$tmp/b.txt && \
	cmp $$tmp/a.txt $$tmp/b.txt && echo "race-search: same-seed reports byte-identical across worker counts"; \
	status=$$?; rm -rf $$tmp; exit $$status

# Paper claims across seeds: TestPaperClaims (tier-1, seed 4) plus the
# seed-independent claims (E6 crash pattern, E5 direction, E4 FI > NFI)
# re-checked on the paper campaigns of seeds 1–3. The `claims` build tag
# only adds claims_seeds_test.go. Runs in CI after race-search.
claims:
	$(GO) test -tags claims -count=1 -run '^TestPaperClaims' .

# Short fuzz passes over the hostile-input surfaces: the lint
# suppression parser (runs over every comment in the repo on each
# `make lint`), the world-view decoder, the transport framing and its
# fragment header (re-fragmentation round trip), the spatial-index equivalence property (grid-indexed projection must stay
# bit-identical to the linear reference scan), and the Prometheus
# exposition writer (arbitrary metric/label names must sanitize into
# grammar-valid output).
fuzz:
	$(GO) test -run='^$$' -fuzz=FuzzParseAllow -fuzztime=5s ./internal/analysis
	$(GO) test -run='^$$' -fuzz=FuzzUnmarshalWorldView -fuzztime=5s ./internal/sensors
	$(GO) test -run='^$$' -fuzz=FuzzDecodeFrame -fuzztime=5s ./internal/transport
	$(GO) test -run='^$$' -fuzz=FuzzParseFragment -fuzztime=5s ./internal/transport
	$(GO) test -run='^$$' -fuzz=FuzzProjectEquivalence -fuzztime=5s ./internal/geom
	$(GO) test -run='^$$' -fuzz=FuzzExposition -fuzztime=5s ./internal/telemetry
	$(GO) test -run='^$$' -fuzz=FuzzWireProtocol -fuzztime=5s ./internal/campaignd
	$(GO) test -run='^$$' -fuzz=FuzzApplyWorldViewDelta -fuzztime=5s ./internal/sensors
	$(GO) test -run='^$$' -fuzz=FuzzHubWire -fuzztime=5s ./internal/hub

# Everything a PR must survive: compile, static checks, determinism
# lint, race-clean tests, and the short fuzz budget.
check: build vet lint race fuzz

# One-command CI gate: build + vet + lint + race + race-hub +
# race-search + claims + fingerprint + perfbench-check, in order,
# stopping at the first failure (scripts/ci.sh). Fuzz and the
# full distributed battery are the slower `check`/`race-dist` add-ons.
ci:
	./scripts/ci.sh

# Every root benchmark (substrate microbenches, table/figure
# reproductions, ablations), five repetitions, as plain `go test -bench`
# text. The expensive paper campaign behind the table benches runs once
# per invocation (sync.Once), so -count=5 only repeats the cheap
# measurement loops. Host-stamped BENCH_PR*.json records come from
# perfbench (bash perfbench/run.sh).
BENCHCOUNT ?= 5
bench:
	$(GO) test -run='^$$' -bench . -benchmem -count $(BENCHCOUNT) .

# Refactor safety net: drive every canonical cell and diff its SHA-256
# trace fingerprint against the golden set recorded before the
# session-layer extraction (internal/session/testdata). `fingerprint`
# fails on any divergence; `fingerprint-update` rewrites the goldens —
# only after a change that is MEANT to alter trajectories. Arena reuse
# and multi-tenant hosting are pinned to the same goldens by tier-1
# tests (TestHubSessionsBitIdentical, TestRefactorEquivalence).
fingerprint:
	$(GO) run ./cmd/fingerprint

fingerprint-update:
	$(GO) run ./cmd/fingerprint -update

# The benchmark harness is its own module (perfbench/go.mod), so
# `go build ./...` and `go test ./...` here never compile it. It builds
# against this module's exported API: vet and test it so an API change
# cannot break the benchmark unseen.
perfbench-check:
	cd perfbench && $(GO) vet ./... && $(GO) test -count=1 ./...
