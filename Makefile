GO ?= go

.PHONY: all build test race vet vet-lostcancel api-check fmt check bench bench-test bench-pair fuzz-smoke kernel-check approx-check trace-smoke

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
# snake_case and cmd/s2 mounts exactly one search route; it keeps internal/
# to packages a command imports; and (rule 6, one request, one record, one
# ID) it allows wide-event literals only in core's request envelope and
# admission's shed path, one place that starts the "http_request" trace root,
# and no request_id JSON field or X-Request-Id header in non-test Go; and
# (rule 7, no Config field without a setter) every core.Config field is set
# by a command or the benchmark, or allowlisted with its reason; and (rule 8,
# no declaration without a caller) every top-level declaration and exported
# method under internal/ has a non-test reference, or is allowlisted with
# its reason; and (rule 9, one resolver) non-test internal/shard names no
# core.Kind identifier and core.Request has no Prepared or QueryBursts
# field; and (rule 10, one served index) non-test core and shard neither
# build, search nor insert into a vptree.Tree, and non-test core, shard and
# cmd/ do not call Engine.Tree, outside the one file that holds it; and (rule
# 11, one filter-and-refine) non-test internal/dtw imports neither lifecycle
# nor knn, and only internal/knn calls Gate.DeltaCut, so the scan, the tree
# and DTW share knn's one filter and refine. See scripts/api_check.sh.
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
	$(GO) test -run='^$$' -fuzz FuzzBoundsAbandon -fuzztime $(FUZZTIME) ./internal/spectral
	$(GO) test -run='^$$' -fuzz FuzzForwardReal -fuzztime $(FUZZTIME) ./internal/fft
	$(GO) test -run='^$$' -fuzz FuzzSketchBound -fuzztime $(FUZZTIME) ./internal/sketch
	$(GO) test -run='^$$' -fuzz FuzzParseTraceparent -fuzztime $(FUZZTIME) ./internal/obs
	$(GO) test -run='^$$' -fuzz FuzzFlatSearch -fuzztime $(FUZZTIME) ./internal/vptree
	$(GO) test -run='^$$' -fuzz FuzzShardRoute -fuzztime $(FUZZTIME) ./internal/shard
	$(GO) test -run='^$$' -fuzz FuzzV2Decode -fuzztime $(FUZZTIME) ./internal/core
	$(GO) test -run='^$$' -fuzz FuzzOverlapPlans -fuzztime $(FUZZTIME) ./internal/burstdb

# kernel-check is the kernel acceptance suite: the real transform against the
# O(N²) DFT and the cached tables it reads, the query context's magnitude
# order against the comparator sort, the period scan against a direct per-bin
# DFT, the arena property
# tests, the served scan against its parent-recorded goldens and the linear
# oracle (TestScanMatchesTheLinearOracle: single engine and one and three
# shards, block edges, duplicate rows, k >= n, after Add and a save and
# load), the DTW search against banded DTW over every other row
# (TestDTWMatchesTheBruteForceOracle: the same layouts and sizes, by ID and by
# values, bands 0, 7 and past the series, after Add and a load) and its work
# counters on a pinned corpus (TestDTWStatsPinned), the paper's tree against
# its goldens and the brute-force oracle, the
# three moves a search saves work by (bounds abandoned against σ_UB —
# TestScanInvariantToAbandon for the scan —, candidates dropped on sight, the
# bucketed candidate order) against the search that does none of them, the
# in-place suite (TestFlatInPlace…: the flat index Insert
# changes in place against a fresh layout of itself after every operation;
# one writer beside readers) and the sketch tier (bound soundness, the store
# keeping it in step, refinement skipping only what would abandon, the vector
# kernel against the portable one), all under the race detector; then the
# sketch's portable path on its own (-tags purego builds without the assembly,
# as every other architecture does) and a vet and build for arm64, so neither
# the path this machine does not run nor the build it does not do can rot.
kernel-check:
	$(GO) test -race -run 'TestForwardRealHalf|TestCachedTwiddles|TestTwiddleTables|TestQueryContext|TestSimilarPeriodsMatchesDirectDFT' ./internal/fft ./internal/spectral ./internal/core
	$(GO) test -race -run 'TestArena|TestFlat|TestGolden|TestBoundsAbandon|TestSearchInvariantToAbandon|TestScanInvariantToAbandon|TestScanMatchesTheLinearOracle|TestDTWMatchesTheBruteForceOracle|TestDTWStatsPinned|TestFilterOrder|TestAddDrops|TestConcurrentFlatStress|TestConcurrentEngineStress' ./internal/spectral ./internal/vptree ./internal/knn ./internal/core ./internal/shard
	$(GO) test -race -run 'Sketch|TestExceeds|TestRows|TestUnsketchable|TestShiftOutOfRange|TestVector|TestClosedForm|Kernel' ./internal/sketch ./internal/seqstore ./internal/knn ./internal/core ./internal/shard
	$(GO) test -tags purego ./internal/sketch ./internal/knn ./internal/seqstore
	GOARCH=arm64 $(GO) vet ./... && GOARCH=arm64 $(GO) build ./...

# trace-smoke boots cmd/s2, sends a traced /v2/search request, reads the kept
# trace back from /debug/traces?id=<trace_id> and asserts its spans and
# parentage. See scripts/trace_smoke.sh.
trace-smoke:
	sh scripts/trace_smoke.sh

# approx-check is the approximate-answering acceptance suite: the quality
# properties (bound-gap soundness, ε=0 bit-identity — single and sharded —
# progressive-snapshot monotonicity and the recall floor at the default ε)
# plus the v2 decode fuzz seeds under the race detector, and the end-to-end
# progressive-streaming smoke against the real binary.
approx-check:
	$(GO) test -race -count=1 -run 'TestApprox|TestShardedApprox|TestV2|FuzzV2Decode' ./internal/core ./internal/shard
	sh scripts/approx_smoke.sh

bench:
	$(GO) test -run=^$$ -bench=. -benchmem ./...

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
