package benchutil

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"reflect"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/admit"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/querylog"
	"repro/internal/shard"
	"repro/internal/vptree"
)

// BenchSchemaVersion versions the BENCH_<label>.json shape. Bump when
// renaming or re-meaning fields so stored records from older commits are
// rejected rather than silently misread.
//
// v2 added the workload's worker count and the throughput section
// (serial vs parallel QPS via BatchSearchCtx).
//
// v3 added the degradation section: aborted (cancelled-context) query
// counts, budget-truncated query counts, and admission queue wait under a
// saturated controller.
//
// v4 added the contention section: per-worker task spread and utilization
// over the parallel throughput phase, steal counts, aggregate mutex-wait
// nanoseconds, and the parallel-vs-serial speedup — the scheduling evidence
// the worker-pool optimisation work gates on.
//
// v5 added the tracing section: serial QPS of an identically-built engine
// with observability disabled versus the hub-attached engine, the relative
// tracing overhead, and how many traces the run's tracer retained — the
// evidence the trace-pipeline work gates on (overhead budget: 2%).
//
// v6 added gomaxprocs (the scheduler parallelism the run actually had —
// speedup numbers are meaningless without it), the kernels section (flat
// arena block size, kernel evaluations, blocks pruned, and the
// flat-matches-pointer correctness bit), and contention.max_task_share
// (largest fraction of the batch any one worker executed — the single-owner
// pathology regression guard).
//
// v7 added the workload's shard count and the sharding section: the same
// corpus partitioned across a scatter-gather engine (internal/shard), with
// per-shard series/node counts and skew, scatter fan-out, cumulative gather
// overhead (absolute and as a fraction of sharded query wall time), and the
// sharded_matches_single correctness bit — the evidence the horizontal
// scaling work gates on.
//
// v8 added the approx section: the twin-query harness re-answers the search
// workload at several ε settings of the quality dial and scores each against
// its exact twin — recall@k, mean proven bound gap, node-visit and
// wall-clock speedup per point, plus the exact_matches_zero bit (ε=0 stays
// bit-identical). The quality gate enforces recall at the default ε.
//
// v9 dropped kernels.flat_path and kernels.flat_matches_pointer: the flat
// traversal is the only one, so there is no pointer twin to compare with and
// no way to bypass the kernels.
const BenchSchemaVersion = 9

// DefaultApproxEpsilon is the canonical quality-dial setting the approx
// section's gate scores: the ε a caller reaching for "fast but still
// faithful" should start from (docs/approx.md). Calibrated so recall@k
// stays ≥ MinApproxRecall on the standard workloads while the relaxed
// pruning still measurably cuts traversal work; the wider dial points
// (0.25, 0.5) are recorded for the quality/speed curve but not gated.
const DefaultApproxEpsilon = 0.05

// MinApproxRecall is the recall@k floor `benchrec gate` enforces at
// DefaultApproxEpsilon.
const MinApproxRecall = 0.99

// BenchWorkload pins every knob that shapes a benchmark run, so two records
// are only ever compared like for like.
type BenchWorkload struct {
	// Series and Queries size the corpus (database sequences and held-out
	// query sequences).
	Series  int `json:"series"`
	Queries int `json:"queries"`
	// Days is the sequence length.
	Days int `json:"days"`
	// Seed fixes the corpus generator.
	Seed int64 `json:"seed"`
	// Budget and K parameterize the index (coefficient budget) and the
	// searches (neighbour count).
	Budget int `json:"budget"`
	K      int `json:"k"`
	// Workers is the parallel fan-out of the throughput measurement (and
	// the engine's Config.Workers). Fixed per workload — throughput is only
	// comparable at equal worker counts.
	Workers int `json:"workers"`
	// Shards is the partition width of the sharding phase's scatter-gather
	// twin (minimum 2 — a one-shard partition measures nothing).
	Shards int `json:"shards"`
}

// DefaultBenchWorkload is the standardized workload `make bench-record`
// runs: big enough that pruning behaviour is representative, small enough
// to finish in seconds.
func DefaultBenchWorkload() BenchWorkload {
	return BenchWorkload{Series: 512, Queries: 16, Days: 512, Seed: 1, Budget: 16, K: 5, Workers: 8, Shards: 4}
}

// SmokeBenchWorkload is the tiny workload CI's bench-smoke job runs; it
// validates the record pipeline structurally without gating on performance.
func SmokeBenchWorkload() BenchWorkload {
	return BenchWorkload{Series: 64, Queries: 4, Days: 128, Seed: 1, Budget: 8, K: 3, Workers: 4, Shards: 3}
}

func (w BenchWorkload) validate() error {
	if w.Series < 2 || w.Queries < 1 || w.Days < 8 || w.Budget < 1 || w.K < 1 || w.Workers < 1 || w.Shards < 2 {
		return fmt.Errorf("benchutil: implausible workload %+v", w)
	}
	return nil
}

// throughputMinQueries is the minimum number of searches timed per
// throughput mode; small workloads repeat their query set to reach it.
const throughputMinQueries = 128

// LatencySummary is exact (sorted-sample) percentiles over one operation's
// per-call wall times.
type LatencySummary struct {
	Samples int     `json:"samples"`
	MeanMS  float64 `json:"mean_ms"`
	P50MS   float64 `json:"p50_ms"`
	P90MS   float64 `json:"p90_ms"`
	P99MS   float64 `json:"p99_ms"`
	MaxMS   float64 `json:"max_ms"`
}

func summarize(samples []float64) LatencySummary {
	if len(samples) == 0 {
		return LatencySummary{}
	}
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	var sum float64
	for _, v := range sorted {
		sum += v
	}
	pct := func(q float64) float64 {
		rank := int(math.Ceil(q * float64(len(sorted))))
		if rank < 1 {
			rank = 1
		}
		return sorted[rank-1]
	}
	return LatencySummary{
		Samples: len(sorted),
		MeanMS:  sum / float64(len(sorted)),
		P50MS:   pct(0.5),
		P90MS:   pct(0.9),
		P99MS:   pct(0.99),
		MaxMS:   sorted[len(sorted)-1],
	}
}

// SearchBench summarizes the similarity-search half of the workload.
type SearchBench struct {
	Latency LatencySummary `json:"latency"`
	// NodesVisited and Candidates are per-query averages.
	NodesVisited float64 `json:"nodes_visited"`
	Candidates   float64 `json:"candidates"`
	// PruneRatio is the fraction of collected candidates discarded without
	// a full retrieval (higher is better — table 2's pruning power).
	PruneRatio float64 `json:"prune_ratio"`
	// FractionExamined is average full retrievals over database size (lower
	// is better — fig. 16's fraction of DB examined).
	FractionExamined float64 `json:"fraction_examined"`
}

// ThroughputBench compares the same query set answered one at a time versus
// fanned out through core.BatchSearchCtx with the workload's worker count.
type ThroughputBench struct {
	// Workers is the BatchSearchCtx fan-out (mirrors workload.workers).
	Workers int `json:"workers"`
	// Queries is the total number of searches timed per mode (the workload
	// query set, repeated over enough rounds for a stable wall-clock).
	Queries int `json:"queries"`
	// SerialQPS / ParallelQPS are completed searches per second.
	SerialQPS   float64 `json:"serial_qps"`
	ParallelQPS float64 `json:"parallel_qps"`
	// Speedup is ParallelQPS / SerialQPS.
	Speedup float64 `json:"speedup"`
	// BatchMatchesSerial records whether BatchSearchCtx returned exactly the
	// neighbours the serial loop did — a correctness bit carried alongside
	// the numbers so a "fast but wrong" run is self-incriminating.
	BatchMatchesSerial bool `json:"batch_matches_serial"`
}

// DegradationBench exercises the request-lifecycle layer: queries aborted
// by an already-cancelled context, queries truncated by a one-node budget,
// and the queue wait observed when the workload is pushed through a
// single-slot admission controller. The counts are correctness bits — a
// record where cancellation or budgets stopped working is self-incriminating
// — while the queue wait tracks admission latency.
type DegradationBench struct {
	// Aborted is how many cancelled-context queries aborted with the
	// context's error (one per workload query; anything less is a bug).
	Aborted int64 `json:"aborted"`
	// Truncated is how many one-node-budget queries returned a truncated
	// partial answer instead of an error (one per workload query).
	Truncated int64 `json:"truncated"`
	// QueueWaitMS is the mean admission queue wait over the saturated
	// phase's admitted queries.
	QueueWaitMS float64 `json:"queue_wait_ms"`
}

// ContentionBench is the scheduling evidence of the parallel throughput
// phase: how the batch fan-out actually spread over the worker pool, how
// busy each worker was, and how long the engine spent waiting on its mutex.
// It is measured as the delta of the engine's per-worker shards (see
// core.Engine.WorkerStats) across the BatchSearchCtx rounds, so serial-phase
// work does not pollute it.
type ContentionBench struct {
	// Workers is the pool size (mirrors workload.workers).
	Workers int `json:"workers"`
	// Batches is how many BatchSearchCtx rounds the phase ran.
	Batches int64 `json:"batches"`
	// TasksPerWorker is how many of the phase's queries each worker
	// executed; the values sum to throughput.queries. A worker that was
	// always beaten to the steal can legitimately show 0.
	TasksPerWorker []int64 `json:"tasks_per_worker"`
	// StealsTotal is how many tasks ran on a worker other than the one
	// whose queue they were partitioned into.
	StealsTotal int64 `json:"steals_total"`
	// UtilizationPerWorker is busy/(busy+idle) per worker over the phase.
	UtilizationPerWorker []float64 `json:"utilization_per_worker"`
	// MeanUtilization averages the per-worker utilizations.
	MeanUtilization float64 `json:"mean_utilization"`
	// Imbalance is max/mean tasks per worker (1 = perfectly balanced).
	Imbalance float64 `json:"imbalance"`
	// MaxTaskShare is the largest fraction of the phase's tasks executed by
	// any single worker (max/sum; 1/workers = perfectly balanced, 1 = the
	// single-owner pathology where one goroutine ran the whole batch).
	MaxTaskShare float64 `json:"max_task_share"`
	// LockWaitNS is the aggregate engine mutex-acquisition wait accumulated
	// during the phase (read-lock waits of the batches; any concurrent
	// writer's write-lock waits would land here too).
	LockWaitNS int64 `json:"lock_wait_ns"`
	// SpeedupVsSerial mirrors throughput.speedup so contention dashboards
	// carry the headline number next to its explanation.
	SpeedupVsSerial float64 `json:"speedup_vs_serial"`
}

// TracingBench measures the cost of the trace pipeline: the workload's
// serial search loop is re-timed on a second engine built from the same
// corpus with no observability hub at all (no tracer, no metrics, no wide
// events), and the two rates are compared. The overhead budget is 2%;
// Validate does not gate on it (single-run wall clocks are machine-noisy)
// but CompareBenchRecords tracks the untraced rate like any other QPS.
type TracingBench struct {
	// UntracedQPS is completed searches per second with observability
	// disabled (Config.Obs == nil).
	UntracedQPS float64 `json:"untraced_qps"`
	// TracedQPS mirrors throughput.serial_qps: the same loop on the
	// hub-attached engine, every query traced end to end.
	TracedQPS float64 `json:"traced_qps"`
	// OverheadPct is (untraced − traced) / untraced × 100. Negative means
	// run-to-run noise favoured the traced engine.
	OverheadPct float64 `json:"overhead_pct"`
	// TracesKept is how many traces the hub's tracer retained over the
	// whole run (ring-capped; with no sampler installed every trace is
	// kept until the ring wraps).
	TracesKept int `json:"traces_kept"`
}

// KernelsBench is the traversal-kernel evidence of the run: how the batched
// leaf kernel behaved (evaluations vs whole blocks pruned).
type KernelsBench struct {
	// BlockSize is the largest leaf block the batched kernel evaluates in
	// one call (the tree's leaf capacity).
	BlockSize int `json:"block_size"`
	// FlatSearches counts the index searches of the run.
	FlatSearches int64 `json:"flat_searches"`
	// LeafBlocks counts whole leaf blocks fed through the batched kernel.
	LeafBlocks int64 `json:"leaf_blocks"`
	// KernelEvals counts per-entry bound evaluations inside those blocks.
	KernelEvals int64 `json:"kernel_evals"`
	// BlocksPruned counts leaf blocks skipped wholesale because an ancestor
	// ball-bound test pruned their subtree.
	BlocksPruned int64 `json:"blocks_pruned"`
}

// ShardingBench is the horizontal-scaling evidence of the run: the same
// corpus partitioned across a scatter-gather engine (internal/shard), the
// workload's query set scattered over every shard and gathered back, and
// each merged answer compared against the single engine's. The skew numbers
// describe how evenly the routing hash spread the corpus; the gather
// numbers bound the merge tax the scatter layer adds on top of the
// per-shard searches.
type ShardingBench struct {
	// Shards is the partition width (mirrors workload.shards).
	Shards int `json:"shards"`
	// Fanout is how many live (non-dormant) shards each scatter hits.
	Fanout int `json:"fanout"`
	// SeriesPerShard / NodesPerShard are the per-shard corpus and VP-tree
	// node counts (0 for a shard the hash left dormant).
	SeriesPerShard []int `json:"series_per_shard"`
	NodesPerShard  []int `json:"nodes_per_shard"`
	// SeriesImbalance is max/mean series per shard (1 = perfectly even);
	// MaxSeriesShare is the largest fraction of the corpus on any one shard
	// (1/shards = perfectly even, 1 = everything hashed onto one shard).
	SeriesImbalance float64 `json:"series_imbalance"`
	MaxSeriesShare  float64 `json:"max_series_share"`
	// Scatters counts the queries fanned out during the phase.
	Scatters int64 `json:"scatters"`
	// ShardedQPS is completed scattered searches per second.
	ShardedQPS float64 `json:"sharded_qps"`
	// GatherNS is the cumulative wall time in the gather/merge stage;
	// GatherPct is that time as a percentage of the phase's total wall time
	// (the scatter layer's overhead — `benchrec gate` enforces a ceiling).
	GatherNS  int64   `json:"gather_ns"`
	GatherPct float64 `json:"gather_pct"`
	// ShardedMatchesSingle records whether every scattered query returned
	// exactly the single engine's neighbours — the equivalence bit the
	// sharding test harness proves and the gate enforces.
	ShardedMatchesSingle bool `json:"sharded_matches_single"`
}

// ApproxPoint is one ε setting of the twin-query harness: the full query
// set answered with Approx{Epsilon: ε} and scored against the exact twin.
type ApproxPoint struct {
	Epsilon float64 `json:"epsilon"`
	// RecallAtK is the mean fraction of the exact top-k the approximate
	// answer retained (1 = every neighbour recovered).
	RecallAtK float64 `json:"recall_at_k"`
	// MeanBoundGap averages the per-result proven bound gaps (0 = every
	// answer certified exact; gaps are finite under a pure-ε dial).
	MeanBoundGap float64 `json:"mean_bound_gap"`
	// NodesVisited is the per-query average traversal work; Speedup is the
	// exact twin's wall time over this point's (1 = no saving).
	NodesVisited float64 `json:"nodes_visited"`
	Speedup      float64 `json:"speedup"`
	// ApproxShare is the fraction of queries that actually took an
	// approximation shortcut (stamped approximate=true).
	ApproxShare float64 `json:"approx_share"`
}

// ApproxBench is the approximate-answering evidence: one point per ε
// setting, always starting at ε=0.
type ApproxBench struct {
	// DefaultEpsilon is the dial point the gate scores (DefaultApproxEpsilon).
	DefaultEpsilon float64 `json:"default_epsilon"`
	// ExactMatchesZero records whether the ε=0 run answered bit-identically
	// to the plain exact queries — the zero-dial collapse the property
	// suite proves and the gate enforces.
	ExactMatchesZero bool          `json:"exact_matches_zero"`
	Points           []ApproxPoint `json:"points"`
}

// PointAt returns the approx point measured at ε (nil if absent).
func (a *ApproxBench) PointAt(eps float64) *ApproxPoint {
	for i := range a.Points {
		if a.Points[i].Epsilon == eps {
			return &a.Points[i]
		}
	}
	return nil
}

// QBBBench summarizes the query-by-burst half of the workload.
type QBBBench struct {
	Latency LatencySummary `json:"latency"`
	// RowsScanned is the per-query average overlap-scan work.
	RowsScanned float64 `json:"rows_scanned"`
}

// BenchRecord is one schema-versioned performance snapshot, written as
// BENCH_<label>.json and compared across commits to track the perf
// trajectory.
type BenchRecord struct {
	Schema    int    `json:"schema"`
	Label     string `json:"label"`
	CreatedAt string `json:"created_at"` // RFC 3339
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	// GoMaxProcs is runtime.GOMAXPROCS at record time. Speedup and task-
	// spread numbers are only meaningful relative to it: a 1-core container
	// cannot show wall-clock parallel speedup no matter how well the pool
	// schedules (see GateRecord).
	GoMaxProcs int `json:"gomaxprocs"`

	Workload BenchWorkload `json:"workload"`

	// BuildMS is engine construction (standardize + spectra + index +
	// burst databases); TreeHeight sanity-checks index balance.
	BuildMS    float64 `json:"build_ms"`
	TreeHeight int     `json:"tree_height"`

	Search      SearchBench      `json:"search"`
	Throughput  ThroughputBench  `json:"throughput"`
	Contention  ContentionBench  `json:"contention"`
	Kernels     KernelsBench     `json:"kernels"`
	Tracing     TracingBench     `json:"tracing"`
	Sharding    ShardingBench    `json:"sharding"`
	Approx      ApproxBench      `json:"approx"`
	QBB         QBBBench         `json:"qbb"`
	Degradation DegradationBench `json:"degradation"`

	// Counters is the final observability-registry counter snapshot, so a
	// record carries the same totals /debug/metrics would have exported.
	Counters map[string]int64 `json:"counters"`

	// Profiles lists the pprof files captured during the run (empty unless
	// BenchOptions.Profiler was set). Informational: paths are machine-local
	// and not validated.
	Profiles []string `json:"profiles,omitempty"`
}

// BenchOptions tunes how RunBenchWithOptions executes beyond the workload
// itself. The zero value reproduces RunBench exactly.
type BenchOptions struct {
	// Profiler, when non-nil, is started for the duration of the run (mutex
	// and block sampling enabled, restored on return) and asked for one
	// mutex/block/heap capture right after the parallel throughput phase —
	// the moment the contention section describes.
	Profiler *obs.Profiler
}

// RunBench executes the workload and returns the filled record. The engine
// is built fresh with its own observability hub so counters start at zero.
func RunBench(w BenchWorkload, label string) (*BenchRecord, error) {
	return RunBenchWithOptions(w, label, BenchOptions{})
}

// RunBenchWithOptions is RunBench with profile capture (see BenchOptions).
func RunBenchWithOptions(w BenchWorkload, label string, opts BenchOptions) (*BenchRecord, error) {
	if err := w.validate(); err != nil {
		return nil, err
	}
	if opts.Profiler != nil {
		if err := opts.Profiler.Start(); err != nil {
			return nil, err
		}
		defer opts.Profiler.Stop()
	}
	g := querylog.NewGenerator(querylog.DefaultStart, w.Days, w.Seed)
	data := append(g.Exemplars(), g.Dataset(w.Series)...)
	queries := g.Queries(w.Queries)

	hub := obs.NewHub()
	buildStart := time.Now()
	e, err := core.NewEngine(data, core.Config{Budget: w.Budget, Seed: w.Seed, Workers: w.Workers, Obs: hub})
	if err != nil {
		return nil, err
	}
	defer e.Close()
	rec := &BenchRecord{
		Schema:     BenchSchemaVersion,
		Label:      label,
		CreatedAt:  time.Now().UTC().Format(time.RFC3339),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Workload:   w,
		BuildMS:    float64(time.Since(buildStart)) / float64(time.Millisecond),
	}
	rec.TreeHeight = e.Tree().Height()

	// Similarity-search workload: held-out queries, k neighbours each.
	var lat []float64
	var nodes, cands, lbPrunes, fulls int
	for _, q := range queries {
		start := time.Now()
		_, st, err := similar(e, q.Values, w.K)
		if err != nil {
			return nil, fmt.Errorf("benchutil: search %q: %w", q.Name, err)
		}
		lat = append(lat, float64(time.Since(start))/float64(time.Millisecond))
		nodes += st.NodesVisited
		cands += st.Candidates + st.LBPrunes
		lbPrunes += st.LBPrunes
		fulls += st.FullRetrievals
	}
	n := float64(len(queries))
	rec.Search = SearchBench{
		Latency:      summarize(lat),
		NodesVisited: float64(nodes) / n,
		Candidates:   float64(cands) / n,
	}
	if cands > 0 {
		rec.Search.PruneRatio = float64(cands-fulls) / float64(cands)
	}
	rec.Search.FractionExamined = float64(fulls) / n / float64(e.Len())

	// Throughput workload: the same query set answered serially versus
	// fanned out through BatchSearchCtx, repeated over enough rounds that the
	// wall-clock is measurable on small workloads.
	qvals := make([][]float64, len(queries))
	for i, q := range queries {
		qvals[i] = q.Values
	}
	rounds := (throughputMinQueries + len(qvals) - 1) / len(qvals)
	serial := make([][]core.Neighbor, len(qvals))
	serialStart := time.Now()
	for r := 0; r < rounds; r++ {
		for i, v := range qvals {
			nbs, _, err := similar(e, v, w.K)
			if err != nil {
				return nil, fmt.Errorf("benchutil: serial throughput query %d: %w", i, err)
			}
			serial[i] = nbs
		}
	}
	serialSec := time.Since(serialStart).Seconds()
	shardsBefore := e.WorkerStats()
	var batch [][]core.Neighbor
	parallelStart := time.Now()
	for r := 0; r < rounds; r++ {
		batch, _, err = e.BatchSearchCtx(context.Background(), qvals, w.K)
		if err != nil {
			return nil, fmt.Errorf("benchutil: batch throughput: %w", err)
		}
	}
	parallelSec := time.Since(parallelStart).Seconds()
	shardsAfter := e.WorkerStats()
	total := rounds * len(qvals)
	rec.Throughput = ThroughputBench{
		Workers:            w.Workers,
		Queries:            total,
		SerialQPS:          float64(total) / serialSec,
		ParallelQPS:        float64(total) / parallelSec,
		BatchMatchesSerial: reflect.DeepEqual(batch, serial),
	}
	if rec.Throughput.SerialQPS > 0 {
		rec.Throughput.Speedup = rec.Throughput.ParallelQPS / rec.Throughput.SerialQPS
	}
	rec.Contention = contentionFromShards(shardsBefore, shardsAfter, rec.Throughput.Speedup)

	// Kernel evidence: the traversal counters the engine's tree accumulated
	// over the search and throughput phases.
	ks := e.Tree().KernelStats()
	rec.Kernels = KernelsBench{
		BlockSize:    ks.MaxBlock,
		FlatSearches: ks.FlatSearches,
		LeafBlocks:   ks.LeafBlocks,
		KernelEvals:  ks.KernelEvals,
		BlocksPruned: ks.BlocksPruned,
	}

	// Tracing overhead: the identical serial loop on a twin engine built
	// with observability disabled, so the delta isolates the trace/metric/
	// wide-event tax the hub-attached engine pays on every query.
	eu, err := core.NewEngine(data, core.Config{Budget: w.Budget, Seed: w.Seed, Workers: w.Workers})
	if err != nil {
		return nil, fmt.Errorf("benchutil: untraced engine: %w", err)
	}
	untracedStart := time.Now()
	for r := 0; r < rounds; r++ {
		for i, v := range qvals {
			if _, _, err := similar(eu, v, w.K); err != nil {
				eu.Close()
				return nil, fmt.Errorf("benchutil: untraced throughput query %d: %w", i, err)
			}
		}
	}
	untracedSec := time.Since(untracedStart).Seconds()
	eu.Close()
	rec.Tracing = TracingBench{
		UntracedQPS: float64(total) / untracedSec,
		TracedQPS:   rec.Throughput.SerialQPS,
	}
	if rec.Tracing.UntracedQPS > 0 {
		rec.Tracing.OverheadPct = (rec.Tracing.UntracedQPS - rec.Tracing.TracedQPS) / rec.Tracing.UntracedQPS * 100
	}

	// Sharding evidence: the same corpus partitioned across w.Shards engine
	// shards, the serial throughput loop re-run through the scatter-gather
	// path, every merged answer checked against the single engine's.
	se, err := shard.New(data, core.Config{Budget: w.Budget, Seed: w.Seed, Workers: w.Workers, Shards: w.Shards})
	if err != nil {
		return nil, fmt.Errorf("benchutil: sharded twin engine: %w", err)
	}
	rec.Sharding = ShardingBench{
		Shards:               w.Shards,
		SeriesPerShard:       se.ShardSizes(),
		NodesPerShard:        se.ShardNodes(),
		ShardedMatchesSingle: true,
	}
	var maxSeries, sumSeries int
	for _, c := range rec.Sharding.SeriesPerShard {
		sumSeries += c
		if c > 0 {
			rec.Sharding.Fanout++
		}
		if c > maxSeries {
			maxSeries = c
		}
	}
	if sumSeries > 0 {
		rec.Sharding.SeriesImbalance = float64(maxSeries) / (float64(sumSeries) / float64(w.Shards))
		rec.Sharding.MaxSeriesShare = float64(maxSeries) / float64(sumSeries)
	}
	shardedStart := time.Now()
	for r := 0; r < rounds; r++ {
		for i, v := range qvals {
			resp, err := se.Query(context.Background(), core.Request{Kind: core.KindSimilar, Values: v, K: w.K})
			if err != nil {
				se.Close()
				return nil, fmt.Errorf("benchutil: sharded query %d: %w", i, err)
			}
			if r == 0 && !reflect.DeepEqual(resp.Neighbors, serial[i]) {
				rec.Sharding.ShardedMatchesSingle = false
			}
		}
	}
	shardedSec := time.Since(shardedStart).Seconds()
	gs := se.GatherStats()
	se.Close()
	rec.Sharding.Scatters = gs.Scatters
	rec.Sharding.GatherNS = gs.GatherNS
	rec.Sharding.ShardedQPS = float64(total) / shardedSec
	if wall := shardedSec * float64(time.Second); wall > 0 {
		rec.Sharding.GatherPct = float64(gs.GatherNS) / wall * 100
	}

	// Approximate-answering evidence: the search workload re-answered at
	// several quality-dial settings, each scored against the exact answers
	// the serial loop already produced. A separate unobserved twin engine
	// keeps the hub engine's counters exactly the workload's (same idiom as
	// the kernel and tracing twins). Speedup divides the ε=0 run's wall
	// time (timed through the same Engine.Query path, so wrapper overhead
	// cancels) by each point's.
	ea, err := core.NewEngine(data, core.Config{Budget: w.Budget, Seed: w.Seed, Workers: w.Workers})
	if err != nil {
		return nil, fmt.Errorf("benchutil: approx twin engine: %w", err)
	}
	defer ea.Close()
	rec.Approx = ApproxBench{DefaultEpsilon: DefaultApproxEpsilon, ExactMatchesZero: true}
	var zeroSec float64
	for _, eps := range []float64{0, DefaultApproxEpsilon, 0.25, 0.5} {
		pt := ApproxPoint{Epsilon: eps}
		var nodes int64
		var gapSum float64
		var gapN, hits, wanted, approxCount int
		ptStart := time.Now()
		for r := 0; r < rounds; r++ {
			for i, v := range qvals {
				resp, err := ea.Query(context.Background(), core.Request{
					Kind: core.KindSimilar, Values: v, K: w.K,
					Approx: core.Approx{Epsilon: eps},
				})
				if err != nil {
					return nil, fmt.Errorf("benchutil: approx query %d at eps=%v: %w", i, eps, err)
				}
				if r > 0 {
					continue // later rounds only feed the timing
				}
				nodes += int64(resp.Stats.NodesVisited)
				if resp.Approximate {
					approxCount++
				}
				exact := serial[i]
				if eps == 0 && !reflect.DeepEqual(resp.Neighbors, exact) {
					rec.Approx.ExactMatchesZero = false
				}
				inExact := make(map[int]bool, len(exact))
				for _, n := range exact {
					inExact[n.ID] = true
				}
				wanted += len(exact)
				for _, n := range resp.Neighbors {
					if inExact[n.ID] {
						hits++
					}
					if !math.IsInf(n.BoundGap, 1) {
						gapSum += n.BoundGap
						gapN++
					}
				}
			}
		}
		ptSec := time.Since(ptStart).Seconds()
		if eps == 0 {
			zeroSec = ptSec
		}
		if wanted > 0 {
			pt.RecallAtK = float64(hits) / float64(wanted)
		}
		if gapN > 0 {
			pt.MeanBoundGap = gapSum / float64(gapN)
		}
		pt.NodesVisited = float64(nodes) / float64(len(qvals))
		pt.ApproxShare = float64(approxCount) / float64(len(qvals))
		if ptSec > 0 && zeroSec > 0 {
			pt.Speedup = zeroSec / ptSec
		}
		rec.Approx.Points = append(rec.Approx.Points, pt)
	}

	if opts.Profiler != nil {
		files, err := opts.Profiler.Capture(label)
		if err != nil {
			return nil, fmt.Errorf("benchutil: profile capture: %w", err)
		}
		rec.Profiles = files
	}

	// Query-by-burst workload: one QBB per query-count indexed series.
	var qbbLat []float64
	var rows int
	for id := 0; id < w.Queries && id < e.Len(); id++ {
		start := time.Now()
		resp, err := e.Query(context.Background(), core.Request{
			Kind: core.KindBurstID, ID: id, K: w.K, Window: core.Long, Explain: true,
		})
		if err != nil {
			return nil, fmt.Errorf("benchutil: qbb id %d: %w", id, err)
		}
		qbbLat = append(qbbLat, float64(time.Since(start))/float64(time.Millisecond))
		rows += resp.Explain.Burst.RowsScanned
	}
	rec.QBB = QBBBench{
		Latency:     summarize(qbbLat),
		RowsScanned: float64(rows) / float64(len(qbbLat)),
	}

	// Degradation workload: the lifecycle layer under abuse. Cancelled
	// contexts must abort, one-node budgets must truncate (not error), and a
	// single-slot admission controller must queue the fan-out.
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	for i, q := range queries {
		if _, err := e.Query(cancelled, core.Request{Kind: core.KindSimilar, Values: q.Values, K: w.K}); errors.Is(err, context.Canceled) {
			rec.Degradation.Aborted++
		} else {
			return nil, fmt.Errorf("benchutil: cancelled query %d returned %v, want context.Canceled", i, err)
		}
	}
	for i, q := range queries {
		resp, err := e.Query(context.Background(), core.Request{
			Kind: core.KindSimilar, Values: q.Values, K: w.K,
			Budget: core.Budget{MaxNodeVisits: 1},
		})
		if err != nil {
			return nil, fmt.Errorf("benchutil: budgeted query %d: %w", i, err)
		}
		if resp.Truncated {
			rec.Degradation.Truncated++
		}
	}
	// Saturated admission: the workload's queries drain through a
	// single-slot controller whose slot is held until every request is
	// queued, so each admitted query's wait measures real queue latency
	// (scheduler-independent — on one core goroutines otherwise run
	// back-to-back and never contend).
	ac := admit.New(admit.Options{MaxInFlight: 1, MaxQueue: len(qvals), MaxWait: time.Minute}, nil)
	hold, _, err := ac.Acquire(context.Background())
	if err != nil {
		return nil, fmt.Errorf("benchutil: admission warm-up: %w", err)
	}
	var (
		admitMu   sync.Mutex
		waitTotal time.Duration
		admits    int
		wg        sync.WaitGroup
	)
	for i := range qvals {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			release, wait, err := ac.Acquire(context.Background())
			if err != nil {
				return // shed requests simply don't contribute a wait sample
			}
			defer release()
			_, _, _ = similar(e, qvals[i], w.K) //nolint:errcheck // timing-only pass
			admitMu.Lock()
			waitTotal += wait
			admits++
			admitMu.Unlock()
		}(i)
	}
	for ac.Waiting() < len(qvals) {
		time.Sleep(100 * time.Microsecond)
	}
	hold() // open the gate: the saturated queue drains one query at a time
	wg.Wait()
	if admits > 0 {
		rec.Degradation.QueueWaitMS = float64(waitTotal) / float64(time.Millisecond) / float64(admits)
	}

	rec.Tracing.TracesKept = hub.Traces.Len()
	rec.Counters = map[string]int64{}
	for _, c := range hub.Registry().Snapshot().Counters {
		rec.Counters[c.Name] = c.Value
	}
	return rec, nil
}

// contentionFromShards turns the before/after worker-shard snapshots of the
// parallel throughput phase into the record's contention section.
func contentionFromShards(before, after obs.WorkerShardsSnapshot, speedup float64) ContentionBench {
	n := len(after.Workers)
	c := ContentionBench{
		Workers:              n,
		Batches:              after.Batches - before.Batches,
		TasksPerWorker:       make([]int64, n),
		UtilizationPerWorker: make([]float64, n),
		LockWaitNS:           after.LockWaitNS - before.LockWaitNS,
		SpeedupVsSerial:      speedup,
	}
	var sumTasks, maxTasks int64
	var utilSum float64
	for i, a := range after.Workers {
		b := obs.WorkerSnapshot{}
		if i < len(before.Workers) {
			b = before.Workers[i]
		}
		tasks := a.Tasks - b.Tasks
		c.TasksPerWorker[i] = tasks
		c.StealsTotal += a.Steals - b.Steals
		busy, idle := a.BusyNS-b.BusyNS, a.IdleNS-b.IdleNS
		if total := busy + idle; total > 0 {
			c.UtilizationPerWorker[i] = float64(busy) / float64(total)
		}
		utilSum += c.UtilizationPerWorker[i]
		sumTasks += tasks
		if tasks > maxTasks {
			maxTasks = tasks
		}
	}
	if n > 0 {
		c.MeanUtilization = utilSum / float64(n)
	}
	if sumTasks > 0 && n > 0 {
		c.Imbalance = float64(maxTasks) / (float64(sumTasks) / float64(n))
		c.MaxTaskShare = float64(maxTasks) / float64(sumTasks)
	}
	return c
}

// Validate checks a record's structural integrity: schema version, workload
// plausibility, sample counts and percentile monotonicity. It deliberately
// does NOT gate on performance numbers.
func (r *BenchRecord) Validate() error {
	if r.Schema != BenchSchemaVersion {
		return fmt.Errorf("benchutil: record schema %d, this binary reads %d", r.Schema, BenchSchemaVersion)
	}
	if r.Label == "" {
		return fmt.Errorf("benchutil: record has no label")
	}
	if _, err := time.Parse(time.RFC3339, r.CreatedAt); err != nil {
		return fmt.Errorf("benchutil: bad created_at %q: %w", r.CreatedAt, err)
	}
	if err := r.Workload.validate(); err != nil {
		return err
	}
	if r.GoMaxProcs < 1 {
		return fmt.Errorf("benchutil: gomaxprocs = %d", r.GoMaxProcs)
	}
	if r.BuildMS <= 0 {
		return fmt.Errorf("benchutil: build_ms = %v", r.BuildMS)
	}
	if r.TreeHeight < 1 {
		return fmt.Errorf("benchutil: tree_height = %d", r.TreeHeight)
	}
	for name, l := range map[string]LatencySummary{"search": r.Search.Latency, "qbb": r.QBB.Latency} {
		if l.Samples < 1 {
			return fmt.Errorf("benchutil: %s latency has no samples", name)
		}
		if !(l.P50MS <= l.P90MS && l.P90MS <= l.P99MS && l.P99MS <= l.MaxMS) {
			return fmt.Errorf("benchutil: %s percentiles not monotone: %+v", name, l)
		}
		if l.MeanMS <= 0 {
			return fmt.Errorf("benchutil: %s mean latency = %v", name, l.MeanMS)
		}
	}
	if r.Search.PruneRatio < 0 || r.Search.PruneRatio > 1 {
		return fmt.Errorf("benchutil: prune_ratio = %v outside [0,1]", r.Search.PruneRatio)
	}
	if r.Search.FractionExamined < 0 || r.Search.FractionExamined > 1 {
		return fmt.Errorf("benchutil: fraction_examined = %v outside [0,1]", r.Search.FractionExamined)
	}
	if r.Throughput.Workers < 1 {
		return fmt.Errorf("benchutil: throughput workers = %d", r.Throughput.Workers)
	}
	if r.Throughput.Queries < 1 {
		return fmt.Errorf("benchutil: throughput ran no queries")
	}
	if r.Throughput.SerialQPS <= 0 || r.Throughput.ParallelQPS <= 0 {
		return fmt.Errorf("benchutil: throughput qps = %v serial / %v parallel",
			r.Throughput.SerialQPS, r.Throughput.ParallelQPS)
	}
	// Speedup is informational (machine-dependent, so no >1 gate here), but
	// it must at least be consistent with the recorded rates.
	if ratio := r.Throughput.ParallelQPS / r.Throughput.SerialQPS; math.Abs(ratio-r.Throughput.Speedup) > 1e-6*ratio {
		return fmt.Errorf("benchutil: throughput speedup %v inconsistent with qps ratio %v",
			r.Throughput.Speedup, ratio)
	}
	if !r.Throughput.BatchMatchesSerial {
		return fmt.Errorf("benchutil: batch search results diverged from serial")
	}
	if r.Contention.Workers != r.Workload.Workers {
		return fmt.Errorf("benchutil: contention tracked %d workers, workload has %d",
			r.Contention.Workers, r.Workload.Workers)
	}
	if r.Contention.Batches < 1 {
		return fmt.Errorf("benchutil: contention saw no batches")
	}
	if len(r.Contention.TasksPerWorker) != r.Contention.Workers ||
		len(r.Contention.UtilizationPerWorker) != r.Contention.Workers {
		return fmt.Errorf("benchutil: contention per-worker slices sized %d/%d, want %d",
			len(r.Contention.TasksPerWorker), len(r.Contention.UtilizationPerWorker), r.Contention.Workers)
	}
	var contTasks int64
	for i, t := range r.Contention.TasksPerWorker {
		// A worker may legitimately execute 0 tasks (beaten to every steal),
		// but never a negative count.
		if t < 0 {
			return fmt.Errorf("benchutil: worker %d executed %d tasks", i, t)
		}
		contTasks += t
		if u := r.Contention.UtilizationPerWorker[i]; u < 0 || u > 1 {
			return fmt.Errorf("benchutil: worker %d utilization %v outside [0,1]", i, u)
		}
	}
	if contTasks != int64(r.Throughput.Queries) {
		return fmt.Errorf("benchutil: contention accounts %d tasks, throughput ran %d",
			contTasks, r.Throughput.Queries)
	}
	if r.Contention.Imbalance < 1 {
		return fmt.Errorf("benchutil: imbalance %v < 1 (max cannot be below mean)", r.Contention.Imbalance)
	}
	if r.Contention.MeanUtilization <= 0 || r.Contention.MeanUtilization > 1 {
		return fmt.Errorf("benchutil: mean_utilization = %v outside (0,1]", r.Contention.MeanUtilization)
	}
	if r.Contention.LockWaitNS < 0 {
		return fmt.Errorf("benchutil: lock_wait_ns = %d", r.Contention.LockWaitNS)
	}
	if math.Abs(r.Contention.SpeedupVsSerial-r.Throughput.Speedup) > 1e-9 {
		return fmt.Errorf("benchutil: contention speedup %v diverges from throughput speedup %v",
			r.Contention.SpeedupVsSerial, r.Throughput.Speedup)
	}
	if r.Contention.MaxTaskShare < 0 || r.Contention.MaxTaskShare > 1 {
		return fmt.Errorf("benchutil: max_task_share = %v outside [0,1]", r.Contention.MaxTaskShare)
	}
	var maxWorkerTasks int64
	for _, t := range r.Contention.TasksPerWorker {
		if t > maxWorkerTasks {
			maxWorkerTasks = t
		}
	}
	if contTasks > 0 {
		if want := float64(maxWorkerTasks) / float64(contTasks); math.Abs(want-r.Contention.MaxTaskShare) > 1e-9 {
			return fmt.Errorf("benchutil: max_task_share %v inconsistent with task spread (want %v)",
				r.Contention.MaxTaskShare, want)
		}
	}
	if r.Kernels.BlockSize < 1 {
		return fmt.Errorf("benchutil: kernels block_size = %d", r.Kernels.BlockSize)
	}
	if r.Kernels.FlatSearches < 1 || r.Kernels.KernelEvals < 1 || r.Kernels.LeafBlocks < 1 || r.Kernels.BlocksPruned < 0 {
		return fmt.Errorf("benchutil: implausible kernel counters: %+v", r.Kernels)
	}
	if r.Tracing.UntracedQPS <= 0 || r.Tracing.TracedQPS <= 0 {
		return fmt.Errorf("benchutil: tracing qps = %v untraced / %v traced",
			r.Tracing.UntracedQPS, r.Tracing.TracedQPS)
	}
	if math.Abs(r.Tracing.TracedQPS-r.Throughput.SerialQPS) > 1e-9 {
		return fmt.Errorf("benchutil: tracing traced_qps %v diverges from throughput serial_qps %v",
			r.Tracing.TracedQPS, r.Throughput.SerialQPS)
	}
	if want := (r.Tracing.UntracedQPS - r.Tracing.TracedQPS) / r.Tracing.UntracedQPS * 100; math.Abs(want-r.Tracing.OverheadPct) > 1e-6 {
		return fmt.Errorf("benchutil: tracing overhead_pct %v inconsistent with rates (want %v)",
			r.Tracing.OverheadPct, want)
	}
	if r.Tracing.TracesKept < 1 {
		return fmt.Errorf("benchutil: tracing kept no traces; the hub-attached run must trace")
	}
	if r.Sharding.Shards != r.Workload.Shards {
		return fmt.Errorf("benchutil: sharding ran %d shards, workload has %d",
			r.Sharding.Shards, r.Workload.Shards)
	}
	if len(r.Sharding.SeriesPerShard) != r.Sharding.Shards || len(r.Sharding.NodesPerShard) != r.Sharding.Shards {
		return fmt.Errorf("benchutil: sharding per-shard slices sized %d/%d, want %d",
			len(r.Sharding.SeriesPerShard), len(r.Sharding.NodesPerShard), r.Sharding.Shards)
	}
	var shardSeries, shardNodes, liveShards int
	for sh, c := range r.Sharding.SeriesPerShard {
		if c < 0 || r.Sharding.NodesPerShard[sh] < 0 {
			return fmt.Errorf("benchutil: shard %d has negative counts", sh)
		}
		shardSeries += c
		shardNodes += r.Sharding.NodesPerShard[sh]
		if c > 0 {
			liveShards++
		}
	}
	if shardSeries < 1 || shardNodes != shardSeries {
		return fmt.Errorf("benchutil: sharding holds %d series but %d index nodes", shardSeries, shardNodes)
	}
	if r.Sharding.Fanout != liveShards || r.Sharding.Fanout < 1 {
		return fmt.Errorf("benchutil: sharding fanout %d, but %d shards hold series",
			r.Sharding.Fanout, liveShards)
	}
	if r.Sharding.SeriesImbalance < 1 {
		return fmt.Errorf("benchutil: series_imbalance %v < 1 (max cannot be below mean)", r.Sharding.SeriesImbalance)
	}
	if r.Sharding.MaxSeriesShare <= 0 || r.Sharding.MaxSeriesShare > 1 {
		return fmt.Errorf("benchutil: max_series_share = %v outside (0,1]", r.Sharding.MaxSeriesShare)
	}
	if r.Sharding.Scatters != int64(r.Throughput.Queries) {
		return fmt.Errorf("benchutil: sharding scattered %d queries, throughput ran %d",
			r.Sharding.Scatters, r.Throughput.Queries)
	}
	if r.Sharding.ShardedQPS <= 0 {
		return fmt.Errorf("benchutil: sharded_qps = %v", r.Sharding.ShardedQPS)
	}
	if r.Sharding.GatherNS < 0 || r.Sharding.GatherPct < 0 || r.Sharding.GatherPct > 100 {
		return fmt.Errorf("benchutil: gather accounting implausible: %d ns, %v%%",
			r.Sharding.GatherNS, r.Sharding.GatherPct)
	}
	if !r.Sharding.ShardedMatchesSingle {
		return fmt.Errorf("benchutil: sharded scatter-gather diverged from the single engine")
	}
	if len(r.Approx.Points) < 2 {
		return fmt.Errorf("benchutil: approx section has %d points, need the ε=0 twin plus at least one dial setting", len(r.Approx.Points))
	}
	if r.Approx.DefaultEpsilon <= 0 {
		return fmt.Errorf("benchutil: approx default_epsilon = %v", r.Approx.DefaultEpsilon)
	}
	if r.Approx.PointAt(0) == nil || r.Approx.PointAt(r.Approx.DefaultEpsilon) == nil {
		return fmt.Errorf("benchutil: approx points %v missing ε=0 or the default ε=%v",
			r.Approx.Points, r.Approx.DefaultEpsilon)
	}
	for i, pt := range r.Approx.Points {
		if pt.Epsilon < 0 || math.IsNaN(pt.Epsilon) || math.IsInf(pt.Epsilon, 0) {
			return fmt.Errorf("benchutil: approx point %d has ε=%v", i, pt.Epsilon)
		}
		if i > 0 && pt.Epsilon <= r.Approx.Points[i-1].Epsilon {
			return fmt.Errorf("benchutil: approx points not strictly ε-ascending at %d", i)
		}
		if pt.RecallAtK < 0 || pt.RecallAtK > 1 {
			return fmt.Errorf("benchutil: approx recall_at_k = %v at ε=%v outside [0,1]", pt.RecallAtK, pt.Epsilon)
		}
		if pt.MeanBoundGap < 0 || math.IsNaN(pt.MeanBoundGap) || math.IsInf(pt.MeanBoundGap, 0) {
			return fmt.Errorf("benchutil: approx mean_bound_gap = %v at ε=%v", pt.MeanBoundGap, pt.Epsilon)
		}
		if pt.NodesVisited <= 0 || pt.Speedup <= 0 {
			return fmt.Errorf("benchutil: approx point ε=%v measured no work (%v nodes, %v speedup)",
				pt.Epsilon, pt.NodesVisited, pt.Speedup)
		}
		if pt.ApproxShare < 0 || pt.ApproxShare > 1 {
			return fmt.Errorf("benchutil: approx approx_share = %v at ε=%v outside [0,1]", pt.ApproxShare, pt.Epsilon)
		}
	}
	if z := r.Approx.PointAt(0); z.RecallAtK != 1 || z.MeanBoundGap != 0 || z.ApproxShare != 0 {
		return fmt.Errorf("benchutil: the ε=0 twin must be exact (recall=1, gap=0, share=0), got %+v", *z)
	}
	if r.Degradation.Aborted < int64(r.Workload.Queries) {
		return fmt.Errorf("benchutil: only %d/%d cancelled queries aborted",
			r.Degradation.Aborted, r.Workload.Queries)
	}
	if r.Degradation.Truncated < int64(r.Workload.Queries) {
		return fmt.Errorf("benchutil: only %d/%d one-node-budget queries truncated",
			r.Degradation.Truncated, r.Workload.Queries)
	}
	if r.Degradation.QueueWaitMS <= 0 {
		return fmt.Errorf("benchutil: queue_wait_ms = %v; the saturated phase must observe queueing",
			r.Degradation.QueueWaitMS)
	}
	if len(r.Counters) == 0 {
		return fmt.Errorf("benchutil: record carries no counters")
	}
	return nil
}

// WriteRecord writes the record as indented JSON to path.
func WriteRecord(r *BenchRecord, path string) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// LoadRecord reads and validates a record from path.
func LoadRecord(path string) (*BenchRecord, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r BenchRecord
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("benchutil: parse %s: %w", path, err)
	}
	if err := r.Validate(); err != nil {
		return nil, fmt.Errorf("benchutil: %s: %w", path, err)
	}
	return &r, nil
}

// GateRecord applies the acceptance gate to a single record and returns the
// list of failures (empty = pass). Unlike Validate, which only checks
// structural integrity, this gates on outcomes: correctness bits must hold
// (batch-vs-serial, sharded-vs-single), no worker may own more than half the
// batch, the scatter layer's gather overhead must stay under maxGatherPct
// (percent of sharded query wall time; <= 0 disables that check), and — only
// when the machine can physically exhibit parallelism (gomaxprocs >= workers)
// — the parallel speedup must reach minSpeedup. On smaller machines the
// speedup check is skipped (the other gates still apply); callers should
// surface that skip.
func GateRecord(r *BenchRecord, minSpeedup, maxGatherPct float64) []string {
	var fails []string
	if !r.Throughput.BatchMatchesSerial {
		fails = append(fails, "throughput.batch_matches_serial = false")
	}
	if !r.Sharding.ShardedMatchesSingle {
		fails = append(fails, "sharding.sharded_matches_single = false (scatter-gather diverged)")
	}
	if maxGatherPct > 0 && r.Sharding.GatherPct > maxGatherPct {
		fails = append(fails, fmt.Sprintf("sharding.gather_pct = %.2f > %.2f (gather overhead ceiling)",
			r.Sharding.GatherPct, maxGatherPct))
	}
	if r.Workload.Workers >= 2 && r.Contention.MaxTaskShare > 0.5 {
		fails = append(fails, fmt.Sprintf("contention.max_task_share = %.3f > 0.5 (single-owner pathology)",
			r.Contention.MaxTaskShare))
	}
	if r.GoMaxProcs >= r.Workload.Workers && r.Throughput.Speedup < minSpeedup {
		fails = append(fails, fmt.Sprintf("throughput.speedup = %.2f < %.2f at gomaxprocs=%d",
			r.Throughput.Speedup, minSpeedup, r.GoMaxProcs))
	}
	if !r.Approx.ExactMatchesZero {
		fails = append(fails, "approx.exact_matches_zero = false (ε=0 diverged from the exact twin)")
	}
	if pt := r.Approx.PointAt(r.Approx.DefaultEpsilon); pt == nil {
		fails = append(fails, fmt.Sprintf("approx section has no point at default ε=%v", r.Approx.DefaultEpsilon))
	} else if pt.RecallAtK < MinApproxRecall {
		fails = append(fails, fmt.Sprintf("approx.recall_at_k = %.4f < %.2f at default ε=%v (quality floor)",
			pt.RecallAtK, MinApproxRecall, r.Approx.DefaultEpsilon))
	}
	return fails
}

// Regression is one metric that moved in the bad direction beyond the
// comparison tolerance.
type Regression struct {
	Metric string  `json:"metric"`
	Old    float64 `json:"old"`
	New    float64 `json:"new"`
	// Delta is the relative change, signed so that positive is always
	// "worse" regardless of the metric's good direction.
	Delta float64 `json:"delta"`
}

// CompareBenchRecords diffs two records of the same workload and returns
// every metric that regressed by more than tol (relative, e.g. 0.15 = 15 %).
// Latency and scan work regress upward; pruning power regresses downward.
func CompareBenchRecords(old, new *BenchRecord, tol float64) ([]Regression, error) {
	if old.Workload != new.Workload {
		return nil, fmt.Errorf("benchutil: workloads differ (%+v vs %+v); records are not comparable",
			old.Workload, new.Workload)
	}
	var regs []Regression
	// higherIsWorse: delta = (new-old)/old.
	check := func(metric string, o, n float64, higherIsWorse bool) {
		if o <= 0 {
			return // nothing to normalize against
		}
		delta := (n - o) / o
		if !higherIsWorse {
			delta = -delta
		}
		if delta > tol {
			regs = append(regs, Regression{Metric: metric, Old: o, New: n, Delta: delta})
		}
	}
	check("build_ms", old.BuildMS, new.BuildMS, true)
	check("search.latency.p50_ms", old.Search.Latency.P50MS, new.Search.Latency.P50MS, true)
	check("search.latency.p90_ms", old.Search.Latency.P90MS, new.Search.Latency.P90MS, true)
	check("search.nodes_visited", old.Search.NodesVisited, new.Search.NodesVisited, true)
	check("search.prune_ratio", old.Search.PruneRatio, new.Search.PruneRatio, false)
	check("search.fraction_examined", old.Search.FractionExamined, new.Search.FractionExamined, true)
	check("throughput.serial_qps", old.Throughput.SerialQPS, new.Throughput.SerialQPS, false)
	check("throughput.parallel_qps", old.Throughput.ParallelQPS, new.Throughput.ParallelQPS, false)
	check("contention.speedup_vs_serial", old.Contention.SpeedupVsSerial, new.Contention.SpeedupVsSerial, false)
	check("contention.max_task_share", old.Contention.MaxTaskShare, new.Contention.MaxTaskShare, true)
	check("kernels.kernel_evals", float64(old.Kernels.KernelEvals), float64(new.Kernels.KernelEvals), true)
	check("tracing.untraced_qps", old.Tracing.UntracedQPS, new.Tracing.UntracedQPS, false)
	check("sharding.sharded_qps", old.Sharding.ShardedQPS, new.Sharding.ShardedQPS, false)
	check("sharding.gather_pct", old.Sharding.GatherPct, new.Sharding.GatherPct, true)
	if op, np := old.Approx.PointAt(old.Approx.DefaultEpsilon), new.Approx.PointAt(new.Approx.DefaultEpsilon); op != nil && np != nil {
		check("approx.recall_at_k", op.RecallAtK, np.RecallAtK, false)
		check("approx.speedup", op.Speedup, np.Speedup, false)
		check("approx.mean_bound_gap", op.MeanBoundGap, np.MeanBoundGap, true)
	}
	check("qbb.latency.p50_ms", old.QBB.Latency.P50MS, new.QBB.Latency.P50MS, true)
	check("qbb.rows_scanned", old.QBB.RowsScanned, new.QBB.RowsScanned, true)
	check("degradation.queue_wait_ms", old.Degradation.QueueWaitMS, new.Degradation.QueueWaitMS, true)
	sort.Slice(regs, func(a, b int) bool { return regs[a].Metric < regs[b].Metric })
	return regs, nil
}

// similar answers one by-values index search through the unified Query
// surface.
func similar(e core.Searcher, values []float64, k int) ([]core.Neighbor, vptree.Stats, error) {
	resp, err := e.Query(context.Background(), core.Request{Kind: core.KindSimilar, Values: values, K: k})
	if err != nil {
		return nil, vptree.Stats{}, err
	}
	return resp.Neighbors, resp.Stats, nil
}
