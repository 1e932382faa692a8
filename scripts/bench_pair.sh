#!/bin/sh
# bench_pair.sh — paired before/after runs of the repository benchmark.
#
#   scripts/bench_pair.sh BASE WORKLOAD [PAIRS]
#
# Checks revision BASE out into a git worktree, then runs PAIRS (default
# and minimum 10) pairs of `bench/run.sh --workload WORKLOAD --out`: one run
# of BASE's checkout and one of this working tree, pair i on seed i,
# alternating which side goes first so drift in the machine's state falls
# on both sides. Finishes with `bench compare` over the two record sets:
# per row the median and quartile spread of each side, the bound from
# BENCHMARK.json and a verdict; per-request counts must match exactly.
#
# Each side builds and runs from its own checkout (bench/run.sh keeps its
# binaries and Go cache under <checkout>/.bench_build), so BASE is measured
# with BASE's own benchmark code. TRACE=1 records the per-layer ledger
# instead of the end-to-end metrics.
#
# Per-request counts and the sketch tier: when BASE predates the store's
# sketch (PR 16) and this tree has it, TRACE=1 reports exactly three counts
# as DIFFERS — vptree.full_retrievals_per_q, seqstore.reads_per_q and
# seqstore.read_bytes_per_q — all downward, and by design: the sketch spares
# reads, and retrievals + vptree_sketch_skips_total still equals BASE's
# retrievals. Any other DIFFERS row (nodes, bounds, candidates, kernel
# evals) means the change altered traversal and is a bug. Between two
# commits that both have the sketch every count must be exact again.
#
# Per-request counts and the length-class burst index: across the commit
# that made query-by-burst's auto plan a range scan of the (length class,
# startDate) index, TRACE=1 reports exactly two counts as DIFFERS —
# burstdb.rows_scanned_per_q and btree.probes_per_q — both downward, and by
# design: the scan is bounded on both sides and touches ≈ 12× fewer rows on
# `families`. Every other per-request count stays exact.
#
# Per-request counts and the seeded shard fan-out: across the commit that
# made a sharded index search run a first wave of Config.Workers shards and
# start the rest from its k-th distance, TRACE=1 on `sharded_knn` reports
# exactly seven counts as DIFFERS — seqstore.reads_per_q,
# seqstore.read_bytes_per_q, vptree.full_retrievals_per_q,
# vptree.candidates_per_q, vptree.bounds_per_q, vptree.kernel_evals_per_q
# and vptree.nodes_per_q — all downward, and by design: the seed prunes
# what the one-wave scatter read, with answers byte-identical. The other
# workloads never fan out and stay exact.
#
# Per-request counts and the pooled query preparation: across the commit
# that committed the store's rows after the index and made spectral.Prepare
# draw from a pool, every TRACE=1 per-request count stays exact on every
# workload, while core.query_bytes_per_op and core.query_allocs_per_op fall
# by design — a kNN query no longer leaves its spectrum, bound context and
# sketch codes behind (≈ 63 KB at 1 024 points). They are per-layer rows,
# not counts, and read as improvements.
#
# Per-request counts and the one tree: across the commit that made the flat
# index the only copy of the VP-tree (build, insert, repack, save and load
# work on it; the pointer node tree is gone), every TRACE=1 per-request
# count reads exact on every workload: the tree's shape, its slots and
# every search are what they were.
#
# Per-request counts and fig. 11 over the arena: across the commit that made
# the similarity search a scan of every compressed feature in sequence-ID
# order (knn.Scan; no engine builds, keeps or walks a VP-tree), TRACE=1
# reports three counts as DIFFERS by design: vptree.nodes_per_q (to 0,
# nothing is walked), vptree.bounds_per_q (up, to every row of every engine
# a request reaches: 11 846 -> 16 384 on paper_knn, 3 493 -> 4 096 on
# sharded_knn) and vptree.kernel_evals_per_q (to 0: the ledger reads it off
# Engine.Tree(), a tree no search uses any more). vptree.candidates_per_q
# read exact on both, and may differ on other corpora: a subtree the tree
# pruned by the triangle inequality can hold rows whose compressed lower
# bound does not exceed σ_UB, which the scan keeps. What must stay exact
# are the reads: vptree.full_retrievals_per_q, seqstore.reads_per_q and
# seqstore.read_bytes_per_q (exact on paper_knn and sharded_knn). The
# ledger's vptree.build_s, insert_us and search_us time that lazily built
# tree, not the served search.
#
# Per-request counts and DTW through knn's filter and refine: across the
# commit that deleted dtw's own cascade (KindDTW adds each row's LB_Keogh
# bound to knn.Scratch and refines through RefineBy), every TRACE=1
# per-request count reads exact on every workload. A row budget on a DTW
# request, which no workload sets, now also spares the reads of the rows
# past it, so seqstore.reads_per_q could only fall there.
#
# Everything it writes is git-ignored: the worktree under .bench_build/,
# the records under bench/out/pair/.
set -eu

[ $# -ge 2 ] || { echo "usage: $0 BASE WORKLOAD [PAIRS]" >&2; exit 2; }
base_rev=$1
workload=$2
pairs=${3:-10}
[ "$pairs" -ge 10 ] || { echo "bench-pair: need at least 10 pairs to claim anything, got $pairs" >&2; exit 2; }
trace=${TRACE:-0}

root=$(git rev-parse --show-toplevel)
tree="$root/.bench_build/pair-base"
out="$root/bench/out/pair"
a="$out/$workload-base.jsonl"
b="$out/$workload-change.jsonl"

mkdir -p "$root/.bench_build" "$out"
rm -f "$a" "$b"
git -C "$root" worktree remove --force "$tree" 2>/dev/null || true
git -C "$root" worktree add --detach "$tree" "$base_rev" >/dev/null
trap 'git -C "$root" worktree remove --force "$tree"' EXIT

log="$out/$workload-last.log"
run() { # run CHECKOUT RECORDS SEED — prints the run's contract line
	bash "$1/bench/run.sh" --workload "$workload" --seed "$3" --trace "$trace" --out "$2" >"$log" 2>&1 ||
		{ cat "$log" >&2; exit 1; }
	tail -n 1 "$log"
}

i=1
while [ "$i" -le "$pairs" ]; do
	echo "# pair $i/$pairs (seed $i)"
	if [ $((i % 2)) -eq 1 ]; then
		run "$tree" "$a" "$i"
		run "$root" "$b" "$i"
	else
		run "$root" "$b" "$i"
		run "$tree" "$a" "$i"
	fi
	i=$((i + 1))
done

go run -C "$root/bench" . compare "$a" "$b"
