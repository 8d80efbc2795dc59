# Standard gates for the pds repro. `make ci` is what a checkin must pass,
# one gate per concern: vet, gofmt, build, the full (shuffled) test suite
# with its coverage floors, the race detector over the concurrent
# packages, short fuzz passes over every fuzz target, the determinism
# lint, the linker audit and the benchmark smoke run. Every check runs
# once: the test run carries the end-to-end tests (pdsd processes over
# TCP, serve and telemetry e2e, the pdsbench golden that pins E1–E22 but
# E18), and the race run carries the concurrent packages' -race passes.

GO ?= go
# Whole-gate fuzzing budget in seconds, divided evenly across the targets.
FUZZTIME ?= 50s

.PHONY: ci build test vet fmt race fuzz lint-determinism linkaudit crash-matrix bench-smoke

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

# The whole suite, shuffled, once, printing each package's coverage as it
# goes. The crash-recovery plane must not silently lose its coverage: the
# commit/replay path (logstore), the crash plane (flash) and the crash
# battery (crashharness) have floors, read from this run's own output.
test:
	@log=$$(mktemp); trap 'rm -f $$log $$log.rc' EXIT; \
	{ $(GO) test -shuffle=on -cover ./...; echo $$? >$$log.rc; } 2>&1 | tee $$log; \
	rc=$$(cat $$log.rc); [ "$$rc" = 0 ] || exit $$rc; \
	floor() { \
		pct=$$(sed -n "s|^ok[[:space:]]*pds/$$1[[:space:]].*coverage: \([0-9.]*\)% of statements.*|\1|p" $$log); \
		if [ -z "$$pct" ] || ! awk -v p="$$pct" -v f="$$2" 'BEGIN { exit !(p >= f) }'; then \
			echo "test: $$1 coverage $${pct:-missing}% (< $$2% floor)"; exit 1; \
		fi; \
		echo "test: $$1 coverage $$pct% (floor $$2%)"; \
	}; \
	floor internal/logstore 80; floor internal/crashharness 75; floor internal/flash 75

# The race detector over the concurrent substrate (obs registry, gquery
# token fleet, netsim fault/reliability plane, ssi accounting, privcrypto's
# shared keyed-MAC and cipher pools, anon's PPDP runs on the gquery fold
# plane at 8 workers), the storage layers that share pooled page buffers, the
# token's read path over them (core: results held across queries that
# reuse the pools), the TCP substrate and the scenario executors, and the
# tenant plane (shared guards and scrape-during-serve hammered from many
# goroutines).
race:
	$(GO) test -race ./internal/obs/... ./internal/gquery/... ./internal/netsim/... ./internal/ssi/... ./internal/privcrypto/... ./internal/anon/...
	$(GO) test -race ./internal/logstore/... ./internal/search/... ./internal/flash/... ./internal/embdb/... ./internal/kv/... ./internal/bloom/... ./internal/core/...
	$(GO) test -race -short ./internal/transport ./internal/scenario -count=1 -timeout 300s
	$(GO) test -race ./internal/tenant ./internal/workload -count=1 -timeout 300s

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

# The simulation substrate, the observability layer and the layers whose
# output a golden or digest pins (transport's TCP replay of netsim, flash
# chip images, logstore, tenant's serve decision digest) must stay
# deterministic: fault schedules and corruption decisions come from seeded
# generators, never the global math/rand. (Protocol packages like gquery's
# noise generator use seeded math/rand legitimately.)
lint-determinism:
	@bad=$$(grep -rln '"math/rand"' internal/netsim internal/ssi internal/obs internal/transport internal/flash internal/logstore internal/tenant --include='*.go' | grep -v _test.go); \
	if [ -n "$$bad" ]; then \
		echo "math/rand leaked into deterministic packages:"; echo "$$bad"; exit 1; \
	fi
	@echo "lint-determinism: ok"

# The linker audit (DESIGN §17): every program is built with inlining
# off, so each function it can reach keeps its symbol, and the
# pds/internal functions no program links are compared with the
# committed allow-list, linkaudit.allow (one function and the reason it
# stays per line). A function only tests reach fails the gate, and so
# does an allow-list line whose function is linked again or gone. A
# generic instantiation's symbol has spaces in its type arguments, so
# each symbol is cut at its first '['.
linkaudit:
	@set -e; A=$$(mktemp -d); trap 'rm -rf $$A' EXIT; \
	for m in ./cmd/pdsbench ./cmd/pdsctl ./cmd/pdsd ./bench ./examples/*/; do \
		$(GO) build -gcflags=all=-l -o $$A/ "$$m"; \
	done; \
	for b in $$A/*; do $(GO) tool nm "$$b"; done | \
		sed -nE 's/^ *[0-9a-f]* +[Tt] (pds\/internal\/[^[]*).*/\1/p' | \
		sed -E 's/\.(func|gowrap|deferwrap)[0-9.]+$$//; s/\(\*([A-Za-z0-9_]+)\)/\1/' | \
		sort -u >$$A/linked; \
	for f in $$(git ls-files 'internal/*.go' | grep -v '_test\.go$$'); do \
		sed -nE 's/^func (\(([a-z_0-9]+ )?\*?([A-Za-z0-9_]+)(\[[^]]*\])?\) )?([A-Za-z0-9_]+).*/\3.\5/p' "$$f" | \
			sed -E "s/^\.//; s|^|pds/$$(dirname "$$f").|"; \
	done | sort -u >$$A/declared; \
	comm -13 $$A/linked $$A/declared | grep -vE '\.(init|main)$$' >$$A/unlinked || true; \
	grep -v '^#' linkaudit.allow | cut -f1 | sort >$$A/allowed; \
	if ! diff -u $$A/allowed $$A/unlinked; then \
		echo "linkaudit: unlinked functions differ from linkaudit.allow (+ unlinked, - allowed)"; exit 1; \
	fi; \
	echo "linkaudit: ok ($$(wc -l <$$A/unlinked) allowed)"

# The power-fail property battery (DESIGN §11): every store workload ×
# every crash point × {write, torn-write, erase}, pinned seeds, full
# sweeps, the per-engine crash and write-fault tests (the durable stores'
# battery, a crash around the host's idle-time reorganization, each
# engine's reorganization under faults), the journal's commit and
# recovery tests, the external sort's write faults (the merge every
# reorganization runs), the chip's crash plane and the allocator's owed
# erases (the journal's stale block owes its erase there), plus the E21
# recovery-cost report. `run PATTERN PKG...` fails the gate when PATTERN
# lists no test in one of its packages, or when one of its |-separated
# alternatives lists none in any of them, so a renamed test cannot drop
# out of the battery unnoticed. `make test` runs the same batteries, and the
# pdsbench golden pins E21's quick report.
crash-matrix:
	@set -e; \
	run() { \
		pat="$$1"; shift; \
		for pkg in "$$@"; do \
			if ! $(GO) test "$$pkg" -list "$$pat" | grep -q '^Test'; then \
				echo "crash-matrix: -run '$$pat' lists no test in $$pkg"; exit 1; \
			fi; \
		done; \
		for alt in $$(echo "$$pat" | tr '|' ' '); do \
			if ! $(GO) test "$$@" -list "$$alt" | grep -q '^Test'; then \
				echo "crash-matrix: '$$alt' of -run '$$pat' lists no test"; exit 1; \
			fi; \
		done; \
		$(GO) test "$$@" -run "$$pat" -count=1; \
	}; \
	$(GO) test ./internal/crashharness -count=1; \
	run 'CrashBattery' ./internal/durable; \
	run 'CrashAroundIdleReorganization' ./internal/tenant; \
	run 'Crash|Reorganize|InPlaceFailed|SyncDurability|ReopenTable|WriteFault' ./internal/kv ./internal/search ./internal/embdb; \
	run 'Journal|Recover|Manifest|CommitCrash|WriteFault' ./internal/logstore; \
	run 'Erase|Crash' ./internal/flash; \
	$(GO) run ./cmd/pdsbench -exp E21

ci: vet fmt build test race fuzz lint-determinism linkaudit bench-smoke

# Benchmark smoke gate: the harness's own tests (metric tables equal to
# BENCHMARK.json, pinned input digests, the comparer), then three seconds
# of the Part III hot-path workload, which exits non-zero on a wrong
# aggregate, an untyped failure or a lossy wire that cost no retransmit,
# and three of the same protocols on a clean wire, where every query must
# equal the plain aggregate, and three of the token read path, which exits non-zero unless Search
# equals NaiveSearch, ExecuteStar equals ExecuteStarNaive and every Get
# returns its value; and three of the TCP substrate, whose episode-0
# replay on the simulator must give the same virtual cost and wire totals,
# so the per-node clock is independent of the substrate; and three of the
# hosted-request path with both passes, which exits non-zero unless every
# arrival got an ACL decision, the sampled audit chains verify and the
# measured and traced passes decide every request alike. Perf itself is
# judged by paired `go run ./bench` runs, not here.
bench-smoke:
	$(GO) test ./bench -count=1
	$(GO) run ./bench -workload gquery-lossy -seconds 3 -trace 0
	$(GO) run ./bench -workload gquery-clean -seconds 3 -trace 0
	$(GO) run ./bench -workload token-query -seconds 3 -trace 0
	$(GO) run ./bench -workload gquery-tcp -seconds 3 -trace 0
	$(GO) run ./bench -workload serve-steady -seconds 3
