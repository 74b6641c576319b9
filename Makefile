# Convenience targets for the MoLoc reproduction. Everything is plain
# `go` underneath; the Makefile just names the common invocations.

GO ?= go

.PHONY: all build vet lint test race cover loc bench bench-json bench-diff experiments examples smoke chaos clean

all: build vet lint test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# moloclint enforces the repo's numeric + concurrency invariants
# (DESIGN.md §8). The extra go vet pass runs the
# unsafeptr and copylocks analyzers by name: naming analyzers disables
# the rest, so this is an explicit, targeted gate on unsafe.Pointer
# conversions and by-value lock copies (typed atomics included) on top
# of the full `make vet`. Any file gofmt would rewrite fails the target.
lint:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt -l lists:"; echo "$$out"; exit 1; fi
	$(GO) vet -unsafeptr -copylocks ./...
	$(GO) run ./cmd/moloclint ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# End-to-end smoke: boot a real molocd, drive one session through the
# API, assert /v1/metricsz counters moved, and verify SIGTERM drains.
smoke:
	$(GO) build -o bin/molocd ./cmd/molocd
	$(GO) run ./cmd/molocsmoke -molocd bin/molocd

# Chaos: the fault-injection and crash-recovery suites (torn WAL tails,
# checkpoint corruption, injected EIO, kill -9 recovery, the degradation
# ladder, and replication failover: follower kill -9 resume, leader kill
# to follower-stale and back, promote with no acked-observation loss)
# under the race detector, repeated, then the end-to-end smoke — which
# itself SIGKILLs and restarts molocd on one data directory and runs a
# three-process leader/follower/promote failover leg.
chaos:
	$(GO) test -race -count=3 ./internal/fault/ ./internal/wal/ ./internal/checkpoint/ ./internal/replica/
	$(GO) test -race -count=3 -run 'TestCrashRecovery|TestTornTail|TestCleanShutdown|TestCorruptCheckpoint|TestWAL|TestClosePrompt|TestInstrument|TestRunSharded|TestServerShed|TestFingerprintOnly|TestRepl' \
		./internal/server/ ./internal/tracker/
	$(MAKE) smoke

cover:
	$(GO) test -cover ./...

# Non-test Go lines, the size figure ROADMAP.md tracks (perfbench is
# its own module and is not counted).
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path '*/testdata/*' ! -path './perfbench/*' | xargs wc -l | tail -1

# Regenerate every paper table/figure plus ablations (EXPERIMENTS.md).
experiments:
	$(GO) run ./cmd/experiments

# One benchmark per table/figure plus micro-benchmarks.
bench:
	$(GO) test -bench=. -benchmem ./...

# Machine-readable perf artifact: run the hot-path benchmarks and emit
# BENCH_PR10.json via cmd/benchjson, one data point in the repo's perf
# trajectory. BENCHTIME trades precision for CI time.
BENCHTIME ?= 1s
BENCH_JSON ?= BENCH_PR10.json
bench-json:
	$(GO) test -run '^$$' -bench 'BenchmarkFingerprintKNN|BenchmarkMotionMatchProb|BenchmarkMoLocLocalize|BenchmarkScalability|BenchmarkMotionTrain|BenchmarkRecompileEdges|BenchmarkIngestUnderLoad|BenchmarkIngestStream|BenchmarkWALGroupCommit|BenchmarkSessionShards|BenchmarkTickWheel|BenchmarkReplApply|BenchmarkHTTPBatch' \
		-benchmem -benchtime $(BENCHTIME) -count 1 . > bench.out
	$(GO) run ./cmd/benchjson -out $(BENCH_JSON) < bench.out
	rm -f bench.out

# Perf gate: regenerate the artifact and compare ns/op against the
# previous PR's pinned numbers; benchmarks shared by both suites must
# not regress beyond 25%, and every baseline benchmark must still be
# present (benchjson -diff fails on removals).
OLD ?= BENCH_PR9.json
bench-diff: bench-json
	$(GO) run ./cmd/benchjson -diff -max-regress 25 $(OLD) $(BENCH_JSON)

# Compile-check and run every example once.
examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/twins
	$(GO) run ./examples/crowdsourcing
	$(GO) run ./examples/streaming
	$(GO) run ./examples/zeroeffort
	$(GO) run ./examples/navigation
	$(GO) run ./examples/mall

clean:
	$(GO) clean ./...
