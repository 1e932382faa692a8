GO ?= go

.PHONY: all build test race vet vet-lostcancel api-check fmt check bench bench-record bench-smoke bench-test bench-pair fuzz-smoke kernel-check shard-check approx-check profile profile-smoke trace-smoke

all: check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# vet-lostcancel runs only the lostcancel analyzer (dropped WithCancel /
# WithTimeout cancel funcs leak contexts). It needs its own target because
# passing an analyzer flag to `go vet` disables the default suite.
vet-lostcancel:
	$(GO) vet -lostcancel ./...

# api-check enforces the one query surface: exported Engine/ShardedEngine
# query methods take ctx first, handlers accept core.Searcher, /v2 JSON is
# snake_case and cmd/s2 mounts exactly one search route. See
# scripts/api_check.sh.
api-check:
	sh scripts/api_check.sh

# fmt fails (and lists the offenders) if any file is not gofmt-clean.
fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# check runs the tests twice: under the race detector, and plainly — the
# testing.AllocsPerRun guards skip themselves under -race (it makes sync.Pool
# drop Puts at random), so only the plain run exercises them. The ingest path
# (Add beside a reader, the flat index mutated in place) has an end-to-end
# smoke outside check, in the benchmark's module:
#   bash bench/run.sh --workload ingest_mix --smoke
check: vet vet-lostcancel api-check fmt race test

# fuzz-smoke gives each spectral fuzz target a short budget on top of the
# checked-in seed corpus (testdata/fuzz/). Long exploratory runs are manual:
#   go test -run='^$$' -fuzz FuzzSafeBounds -fuzztime 10m ./internal/spectral
FUZZTIME ?= 10s
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz FuzzSafeBounds -fuzztime $(FUZZTIME) ./internal/spectral
	$(GO) test -run='^$$' -fuzz FuzzCompressInvariants -fuzztime $(FUZZTIME) ./internal/spectral
	$(GO) test -run='^$$' -fuzz FuzzArenaKernel -fuzztime $(FUZZTIME) ./internal/spectral
	$(GO) test -run='^$$' -fuzz FuzzSketchBound -fuzztime $(FUZZTIME) ./internal/sketch
	$(GO) test -run='^$$' -fuzz FuzzParseTraceparent -fuzztime $(FUZZTIME) ./internal/obs
	$(GO) test -run='^$$' -fuzz FuzzFlatSearch -fuzztime $(FUZZTIME) ./internal/vptree
	$(GO) test -run='^$$' -fuzz FuzzShardRoute -fuzztime $(FUZZTIME) ./internal/shard
	$(GO) test -run='^$$' -fuzz FuzzV2Decode -fuzztime $(FUZZTIME) ./internal/core

# kernel-check is the traversal-kernel acceptance suite: the arena property
# tests, the one traversal against its parent-recorded goldens and the
# brute-force oracle (both bound sources, explain on and off), the in-place
# suite (TestFlatInPlace…: the flat index Insert/Delete mutate against a fresh
# derivation after every operation; one writer beside readers), plus the
# scheduler-spread regressions and the sketch tier (bound soundness, the
# store keeping it in step, refinement skipping only what would abandon, the
# vector kernel against the portable one), all under the race detector; then
# the sketch's portable path on its own (-tags purego builds without the
# assembly, as every other architecture does) and a vet and build for arm64,
# so neither the path this machine does not run nor the build it does not do
# can rot; followed by a smoke bench record pushed through validate, the gate
# and a self-compare.
kernel-check:
	$(GO) test -race -run 'TestArena|TestFlat|TestGolden|TestSplitBatch|TestPopBlock|TestBatchSpread|TestConcurrentFlatStress|TestConcurrentEngineStress' ./internal/spectral ./internal/vptree ./internal/core
	$(GO) test -race -run 'Sketch|TestExceeds|TestRows|TestUnsketchable|TestShiftOutOfRange|TestVector|TestClosedForm|Kernel' ./internal/sketch ./internal/seqstore ./internal/knn ./internal/core ./internal/shard
	$(GO) test -tags purego ./internal/sketch ./internal/knn ./internal/seqstore
	GOARCH=arm64 $(GO) vet ./... && GOARCH=arm64 $(GO) build ./...
	$(GO) run ./cmd/benchrec record -smoke -label kernelsmoke -o /tmp/BENCH_kernelsmoke.json
	$(GO) run ./cmd/benchrec validate /tmp/BENCH_kernelsmoke.json
	$(GO) run ./cmd/benchrec gate /tmp/BENCH_kernelsmoke.json
	$(GO) run ./cmd/benchrec compare /tmp/BENCH_kernelsmoke.json /tmp/BENCH_kernelsmoke.json

# shard-check is the scatter-gather acceptance suite: the full
# internal/shard package — the 100-trial equivalence property test across
# shard counts {1,2,3,8}, the rollback/cancellation stress tests, the huge-k
# clamp and sharded explain — under the race detector, followed by a
# smoke bench record pushed through validate and the gate (which enforces
# sharded_matches_single and the gather-overhead ceiling).
shard-check:
	$(GO) test -race -count=1 ./internal/shard/
	$(GO) run ./cmd/benchrec record -smoke -label shardsmoke -o /tmp/BENCH_shardsmoke.json
	$(GO) run ./cmd/benchrec validate /tmp/BENCH_shardsmoke.json
	$(GO) run ./cmd/benchrec gate /tmp/BENCH_shardsmoke.json

# trace-smoke boots cmd/s2 with a file span exporter, sends a traced
# /v2/search request and asserts the exported trace's spans and parentage.
# See scripts/trace_smoke.sh.
trace-smoke:
	sh scripts/trace_smoke.sh

# approx-check is the approximate-answering acceptance suite: the quality
# properties (bound-gap soundness, ε=0 bit-identity — single and sharded —
# and progressive-snapshot monotonicity) plus the v2 decode fuzz seeds under
# the race detector, a smoke bench record pushed through validate and the
# quality gate (recall floor at the default ε), and the end-to-end
# progressive-streaming smoke against the real binary.
approx-check:
	$(GO) test -race -count=1 -run 'TestApprox|TestShardedApprox|TestV2|TestNewRequest|FuzzV2Decode' ./internal/core ./internal/shard
	$(GO) run ./cmd/benchrec record -smoke -label approxsmoke -o /tmp/BENCH_approxsmoke.json
	$(GO) run ./cmd/benchrec validate /tmp/BENCH_approxsmoke.json
	$(GO) run ./cmd/benchrec gate /tmp/BENCH_approxsmoke.json
	sh scripts/approx_smoke.sh

bench:
	$(GO) test -run=^$$ -bench=. -benchmem ./...

# bench-record writes a schema-versioned perf snapshot (BENCH_<label>.json)
# from the standardized default workload. Compare two snapshots with
#   go run ./cmd/benchrec compare OLD.json NEW.json
BENCH_LABEL ?= dev
bench-record:
	$(GO) run ./cmd/benchrec record -label $(BENCH_LABEL)

# bench-smoke runs the tiny CI workload, validates the record structurally
# and applies the correctness gate (batch/flat/sharded match bits plus the
# gather-overhead ceiling; the perf speedup floor self-skips on small
# machines, so this stays safe for noisy CI runners).
bench-smoke:
	$(GO) run ./cmd/benchrec record -smoke -label smoke -o /tmp/BENCH_smoke.json
	$(GO) run ./cmd/benchrec validate /tmp/BENCH_smoke.json
	$(GO) run ./cmd/benchrec gate /tmp/BENCH_smoke.json

# bench-test runs the repository benchmark's own tests. bench/ is a nested
# module, so the root `go test ./...` never reaches it; its smoke tier runs
# every workload in both modes against the real binary in about ten seconds.
bench-test:
	cd bench && $(GO) test ./...

# bench-pair is the before/after measurement a performance claim needs:
#   make bench-pair BASE=<rev> W=<workload> [PAIRS=10] [TRACE=0]
# checks BASE out into a git worktree, runs at least ten alternating pairs
# of bench/run.sh --out (BASE's checkout, then this tree, or the reverse)
# and finishes with `bench compare`. See scripts/bench_pair.sh, also for
# which per-request counts may read DIFFERS under TRACE=1 across the commit
# that gave the store its sketch.
PAIRS ?= 10
bench-pair:
	@test -n "$(BASE)" -a -n "$(W)" || { echo "usage: make bench-pair BASE=<rev> W=<workload> [PAIRS=10]"; exit 2; }
	TRACE=$(or $(TRACE),0) sh scripts/bench_pair.sh $(BASE) $(W) $(PAIRS)

# profile records the default workload with mutex/block/heap pprof capture
# enabled; inspect with `go tool pprof profiles/mutex-profile-001.pprof`.
PROFILE_DIR ?= profiles
profile:
	$(GO) run ./cmd/benchrec record -label profile -o /tmp/BENCH_profile.json -profile-dir $(PROFILE_DIR)

# profile-smoke is the CI variant: tiny workload, assert every profile file
# exists and is non-empty, validate the schema-v4 record, and exercise the
# regression gate by comparing the record against itself.
profile-smoke:
	rm -rf /tmp/profile-smoke && mkdir -p /tmp/profile-smoke
	$(GO) run ./cmd/benchrec record -smoke -label profsmoke -o /tmp/BENCH_profsmoke.json -profile-dir /tmp/profile-smoke
	@for kind in mutex block heap; do \
		f="$$(ls /tmp/profile-smoke/$$kind-*.pprof 2>/dev/null | head -n1)"; \
		if [ -z "$$f" ] || [ ! -s "$$f" ]; then \
			echo "missing or empty $$kind profile in /tmp/profile-smoke"; exit 1; fi; \
		echo "ok: $$f ($$(wc -c < $$f) bytes)"; \
	done
	$(GO) run ./cmd/benchrec validate /tmp/BENCH_profsmoke.json
	$(GO) run ./cmd/benchrec compare /tmp/BENCH_profsmoke.json /tmp/BENCH_profsmoke.json
