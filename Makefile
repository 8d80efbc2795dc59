# Standard gates for the pds repro. `make ci` is what a checkin must pass:
# vet, the full (shuffled) test suite, the race detector over the
# concurrent substrate (netsim fault/reliability plane, ssi accounting,
# gquery token fleet, privcrypto batch helpers, smc parallel protocols,
# obs registry) and the storage layers that share pooled page buffers
# (logstore, search, flash, embdb, kv, bloom), short fuzz passes over
# every fuzz target,
# the gofmt and determinism lints, the metrics smoke run, the multi-process
# scenario gate (pdsd over the TCP substrate) and the benchmark smoke run.
# The test run prints each package's coverage as it goes.

GO ?= go
# Whole-gate fuzzing budget in seconds, divided evenly across the targets.
FUZZTIME ?= 50s

.PHONY: ci build test vet fmt race fuzz cover-recovery lint-determinism smoke-metrics smoke-trace perf-regression crash-matrix crash-matrix-ci scenario-ci serve-ci telemetry-ci bench-part3 bench-smoke

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Every tracked Go file is gofmt-clean.
fmt:
	@bad=$$(git ls-files '*.go' | xargs gofmt -l); \
	if [ -n "$$bad" ]; then \
		echo "not gofmt-clean:"; echo "$$bad"; exit 1; \
	fi
	@echo "fmt: ok"

test:
	$(GO) test -shuffle=on -cover ./...

race:
	$(GO) test -race ./internal/obs/... ./internal/gquery/... ./internal/netsim/... ./internal/ssi/... ./internal/privcrypto/... ./internal/smc/...
	$(GO) test -race ./internal/logstore/... ./internal/search/... ./internal/flash/... ./internal/embdb/... ./internal/kv/... ./internal/bloom/...

# Short, bounded fuzz passes over every Fuzz* target `go test -list`
# finds, package by package — none is hand-listed, so a new target is in
# the gate the moment it exists. The properties: decoders facing the
# flash, the wire or a file return a typed error or a value that
# re-encodes canonically, never a panic; recovery under corrupted pages
# yields a typed error or a valid prefix; and the differential targets
# (Paillier CRT vs textbook, the external sort, the byte-level triple
# comparator and the in-place page, Bloom and tuple views against the
# implementations they replaced) agree.
fuzz:
	@set -e; \
	targets=$$($(GO) list ./... | while read pkg; do \
		$(GO) test $$pkg -list '^Fuzz' | sed -n "s|^Fuzz|$$pkg Fuzz|p"; \
	done); \
	n=$$(echo "$$targets" | wc -l); \
	total=$(FUZZTIME); per=$$(( $${total%s} * 1000 / n ))ms; \
	echo "fuzz: $$n targets, $$per each"; \
	echo "$$targets" | while read pkg fn; do \
		$(GO) test $$pkg -run '^$$' -fuzz "^$$fn\$$" -fuzztime=$$per; \
	done

# The simulation substrate and the observability layer must stay
# deterministic: fault schedules and corruption decisions come from seeded
# generators, never the global math/rand. (Protocol packages like gquery's
# noise generator use seeded math/rand legitimately.)
lint-determinism:
	@bad=$$(grep -rln '"math/rand"' internal/netsim internal/ssi internal/obs --include='*.go' | grep -v _test.go); \
	if [ -n "$$bad" ]; then \
		echo "math/rand leaked into deterministic packages:"; echo "$$bad"; exit 1; \
	fi
	@echo "lint-determinism: ok"

# End-to-end check of the -metrics flag: the quick sweep must emit a JSON
# snapshot that parses and covers the promised metric families (asserted by
# TestMetricsSnapshotSmoke), plus byte-identical serial snapshots
# (TestObserverSnapshotByteIdentical).
smoke-metrics:
	$(GO) test ./cmd/pdsbench -run '^TestMetricsSnapshotSmoke$$' -count=1
	$(GO) test ./internal/gquery -run '^TestObserverSnapshotByteIdentical$$' -count=1

# End-to-end check of the -trace flag and the pdsctl trace subcommand:
# the Perfetto export must parse as JSON and every span's parent must
# resolve within the file.
smoke-trace:
	$(GO) test ./cmd/pdsbench -run '^TestTraceExportSmoke$$' -count=1
	$(GO) test ./cmd/pdsctl -run '^TestCLITraceRoundTrip$$' -count=1

# Perf gate on the hierarchical fold plane (DESIGN §10): at 1e4 tokens the
# tree topology's simulated critical path must stay strictly below the
# flat plane's, with bit-identical aggregates. The per-node time model
# (DESIGN, "Part III time model") must give the same critical path for
# any fleet size and never a shorter one on a lossy wire, and every bulk
# leg — a PDS's upload, a chunk's dispatch — must be one frame. On the token,
# the star query over folded Tselect trees with held pages (DESIGN §20)
# must average at most 300 page reads and match the naive baseline, and a
# search reorganization over twice the compact index (same new postings)
# may add at most one read and one write per added compact page (DESIGN
# §3, "Search reorganization is a merge-fold").
perf-regression:
	$(GO) test ./cmd/pdsbench -run '^TestE20TreeCriticalPathRegression$$' -count=1
	$(GO) test ./internal/gquery -run '^(TestCriticalPathInvariantToWorkers|TestLossyNeverFasterThanClean|TestOneFramePerLeg)$$' -count=1
	$(GO) test ./internal/embdb -run '^TestStarQueryPageBudget$$' -count=1
	$(GO) test ./internal/search -run '^TestReorganizeIOBound$$' -count=1

# The power-fail property battery (DESIGN §11): every store workload ×
# every crash point × {write, torn-write, erase}, pinned seeds, full
# sweeps, plus the E21 recovery-cost report. `crash-matrix-ci` is the
# quick flavor (crash-point stride 7 via -short) that rides in `make ci`.
crash-matrix:
	$(GO) test ./internal/crashharness -count=1
	$(GO) test ./internal/kv ./internal/search ./internal/embdb -run 'Crash|Reorganize|InPlaceFailed|SyncDurability|ReopenTable' -count=1
	$(GO) test ./internal/logstore -run 'Journal|Recover|Manifest|CommitCrash' -count=1
	$(GO) run ./cmd/pdsbench -exp E21

crash-matrix-ci:
	$(GO) test -short ./internal/crashharness -count=1
	$(GO) test -short ./internal/durable -run 'CrashBattery' -count=1
	$(GO) run ./cmd/pdsbench -exp E21 -quick

# Multi-process scenario gate (DESIGN §12): the clean and restart plans
# run end-to-end as real OS processes via pdsd (separate SSI node and
# querier processes over the TCP switch, obs snapshots collected, the
# restart plan's process death detected by checksum), and the race
# detector sweeps the TCP substrate and the scenario executors.
scenario-ci:
	$(GO) test ./cmd/pdsd -run '^TestMultiProcess(Clean|Restart)$$' -count=1 -timeout 120s
	$(GO) test -race -short ./internal/transport ./internal/scenario -count=1 -timeout 300s

# Multi-tenant hosting gate (DESIGN §13): a short open-loop serve run
# with the SLO sanity checks (guard coverage, RAM under the arena,
# monotone percentiles), the same-seed determinism pin (two runs must
# agree on the decision-stream digest), and the race detector over the
# tenant plane (shared guards hammered from many goroutines).
serve-ci:
	$(GO) test -race ./internal/tenant ./internal/workload -count=1 -timeout 300s
	$(GO) test ./cmd/pdsd -run '^TestServe(Subcommand|Plan)$$' -count=1 -timeout 120s
	$(GO) run ./cmd/pdsbench -exp E22 -quick

# Live telemetry gate (DESIGN §14): pdsd serve boots with -http on
# loopback, the e2e test scrapes /metrics and /healthz and asserts
# well-formed exposition (burn-rate, heavy-hitter and flash-wear series
# present) while the windowed-snapshot digest stays byte-identical with
# an unscraped same-seed run; the fleet coordinator's merged scrape runs
# the same way over real shard processes; and the race detector hammers
# concurrent scrape-during-serve plus the window/exposition layer.
telemetry-ci:
	$(GO) test ./cmd/pdsd -run '^Test(Serve|Fleet)HTTPTelemetry$$' -count=1 -timeout 180s
	$(GO) test ./cmd/pdsctl -run '^Test(RenderTop|TopMain)' -count=1
	$(GO) test -race ./internal/tenant -run '^TestServeObservedConcurrentScrape$$' -count=1 -timeout 120s
	$(GO) test -race ./internal/obs -run 'Window|Prom' -count=1 -timeout 120s

# Coverage floor for the crash-recovery plane: the commit/replay path
# (logstore), the crash plane (flash) and the battery driver must not
# silently lose their test coverage.
cover-recovery:
	@set -e; \
	check() { \
		pct=$$($(GO) test -cover $$1 | sed -n 's/.*coverage: \([0-9.]*\)% of statements.*/\1/p'); \
		ok=$$(echo "$$pct $$2" | awk '{print ($$1 >= $$2) ? 1 : 0}'); \
		if [ "$$ok" != "1" ]; then echo "cover-recovery: $$1 at $$pct% (< $$2% floor)"; exit 1; fi; \
		echo "cover-recovery: $$1 $$pct% (floor $$2%)"; \
	}; \
	check ./internal/logstore 80; \
	check ./internal/crashharness 75; \
	check ./internal/flash 75

ci: vet fmt build test race fuzz cover-recovery lint-determinism smoke-metrics smoke-trace perf-regression crash-matrix-ci scenario-ci serve-ci telemetry-ci bench-smoke

# Serial-vs-parallel perf trajectory for the Part III protocols.
bench-part3:
	$(GO) test -run xxx -bench 'E6SecureAgg|E6NoiseControlled|E7Paillier' -benchmem .

# Benchmark smoke gate: the harness's own tests (metric tables equal to
# BENCHMARK.json, pinned input digests, the comparer), then three seconds
# of the Part III hot-path workload, which exits non-zero on a wrong
# aggregate, an untyped failure or a lossy wire that cost no retransmit,
# and three of the token read path, which exits non-zero unless Search
# equals NaiveSearch, ExecuteStar equals ExecuteStarNaive and every Get
# returns its value; and three of the TCP substrate, whose episode-0
# replay on the simulator must give the same virtual cost and wire totals,
# so the per-node clock is independent of the substrate. Perf itself is
# judged by paired `go run ./bench` runs, not here.
bench-smoke:
	$(GO) test ./bench -count=1
	$(GO) run ./bench -workload gquery-lossy -seconds 3 -trace 0
	$(GO) run ./bench -workload token-query -seconds 3 -trace 0
	$(GO) run ./bench -workload gquery-tcp -seconds 3 -trace 0
