GO ?= go

.PHONY: build test fmt vet lint lint-fixtures fuzz-smoke race determinism bench metrics-smoke serve-smoke crash-smoke load-smoke cluster-smoke bench-smoke verify

build:
	$(GO) build ./...

# -shuffle=on randomizes test execution order within each package, so
# accidental test-order dependencies fail loudly instead of lurking.
test:
	$(GO) test -shuffle=on ./...

# gofmt gate: fail on any Go file gofmt would rewrite, in the root
# module or the separate bench/ module (the benchmark's build directory
# is skipped).
fmt:
	@out=$$(gofmt -l $$(find . -name .bench_build -prune -o -name '*.go' -print)); \
	if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

# bench/ is its own Go module, which the root ./... never reaches.
vet:
	$(GO) vet ./...
	cd bench && $(GO) vet ./...

# The repo's own determinism + concurrency linter (cmd/hclint): no
# global math/rand, no wall-clock or raw map iteration in deterministic
# packages, no raw float equality, must-check persistence errors — plus
# the server/journal invariant checks (guardedby lock discipline,
# append-then-Sync ack ordering, goroutine/mutex/atomic hygiene; see
# docs/lint-checks.md). Fails on any unsuppressed finding; suppressions
# require a written reason (//hclint:ignore <check> <why>).
lint:
	$(GO) run ./cmd/hclint ./...

# Self-test the linter: rerun every check against its golden fixture
# corpus under internal/lint/testdata/src/ and fail on any drift.
lint-fixtures:
	$(GO) run ./cmd/hclint -fixtures

# Short fuzz pass over every fuzz target (one -fuzz run per target, 5s
# each): checkpoint decode/round-trip, the journal frame decoder, the
# mathx entropy/log-domain kernels, the family-entropy enumerator against
# its scalar oracles, and the dataset CSV/JSON loaders.
fuzz-smoke:
	$(GO) test -run xxx -fuzz 'FuzzCheckpointRoundTrip$$' -fuzztime 5s ./internal/pipeline/
	$(GO) test -run xxx -fuzz 'FuzzJournalReplay$$' -fuzztime 5s ./internal/journal/
	$(GO) test -run xxx -fuzz 'FuzzLogSumExp$$' -fuzztime 5s ./internal/mathx/
	$(GO) test -run xxx -fuzz 'FuzzEntropy$$' -fuzztime 5s ./internal/mathx/
	$(GO) test -run xxx -fuzz 'FuzzBatchKernels$$' -fuzztime 5s ./internal/mathx/
	$(GO) test -run xxx -fuzz 'FuzzFamilyEntropy$$' -fuzztime 5s ./internal/taskselect/
	$(GO) test -run xxx -fuzz 'FuzzReadAnswersCSV$$' -fuzztime 5s ./internal/dataset/
	$(GO) test -run xxx -fuzz 'FuzzReadDataset$$' -fuzztime 5s ./internal/dataset/

race:
	$(GO) test -race ./...

# Reproducibility regression tests, run twice in one process (-count=2)
# to catch per-process state leaks on top of seed-determinism. The
# server entries cover the multi-session service: concurrent sessions
# must label byte-identically to same-seed single sessions, a drain
# must persist exactly the last emitted checkpoint, and a session
# handed between replicas (gracefully or by kill) must finish
# byte-identically to one that never moved. The cluster entry pins the
# consistent-hash ring: identical routing from any membership ordering.
# The experiments entry renders the concurrent Fig2 driver at GOMAXPROCS
# 1 and 4 against pinned hashes.
determinism:
	$(GO) test -count=2 -run 'DeterministicGivenSeed' ./internal/pipeline/ ./internal/experiments/ ./internal/server/ ./internal/taskselect/ ./internal/admit/ ./internal/cluster/

# One pass over every paper benchmark (including the incremental
# selection engine's pick-identity + evals/round check).
bench:
	$(GO) test -run xxx -bench . -benchtime 1x .

# End-to-end observability smoke: boot a -sim hcserve, scrape GET
# /metrics while it labels, and assert the round counters advance.
# -count=10: a scrape racing the per-route counter once failed about 1
# run in 30, which a single run would rarely catch.
metrics-smoke:
	$(GO) test -run 'RunSimMetricsSmoke' -count=10 ./cmd/hcserve/

# End-to-end graceful-drain smoke: boot hcserve with a checkpoint
# directory, create a second session over /v1, answer one round on each,
# deliver the shutdown signal, and assert both sessions' final
# checkpoints exist and load.
serve-smoke:
	$(GO) test -run 'RunServeSmokeDrain' -count=1 ./cmd/hcserve/

# End-to-end crash-recovery smoke: build the real hcserve binary, run it
# with -journal-dir, SIGKILL it mid-round, restart it on the same
# journal, and assert the finished labels and checkpoint are
# byte-identical to an uninterrupted run.
crash-smoke:
	$(GO) test -run 'RunCrashSmoke' -count=1 ./cmd/hcserve/

# End-to-end streaming-load smoke: build the real hcserve binary, then
# drive it with hcload — several concurrent streaming sessions, Poisson
# fragment admissions over POST /v1/sessions/{id}/tasks racing
# goroutine-per-expert answer loops — and assert every session finishes
# with labels covering the grown task set.
load-smoke:
	$(GO) test -run 'RunLoadSmoke' -count=1 ./cmd/hcload/

# End-to-end replica-mode smoke: boot two real hcserve replicas forming
# a consistent-hash ring, spray hcload's streaming sessions across both
# base URLs (misdirected requests 307 to their owner), then SIGKILL one
# replica mid-session, hand its journal to the survivor via
# POST /v1/cluster/accept, and assert the finished labels and final
# checkpoint are byte-identical to an uninterrupted run — with
# cluster_redirects_total > 0 on the survivor.
cluster-smoke:
	$(GO) test -run 'RunClusterSmoke' -count=1 ./cmd/hcload/

# Benchmark smoke: bench/ is its own Go module (so the root go test
# ./... never builds it), yet its per-layer ladder drives the selection
# engines and the server directly. Its tests build hcperf and run every
# workload once at smoke size.
bench-smoke:
	cd bench && $(GO) test ./...

# Gate order: cheap static analysis first (gofmt, vet, then hclint and its
# fixture self-test), then the fuzz smoke, then the race/determinism
# suite and the e2e smokes.
verify: build fmt vet lint lint-fixtures fuzz-smoke race determinism metrics-smoke serve-smoke crash-smoke load-smoke cluster-smoke bench-smoke
