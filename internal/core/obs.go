package core

import (
	"strconv"

	"repro/internal/burstdb"
	"repro/internal/obs"
	"repro/internal/vptree"
)

// engineMetrics bundles every registry instrument the engine's hot paths
// update. All fields are nil when the engine was built without a Hub; obs
// instruments are nil-safe, so call sites update them unconditionally and
// disabled observability costs one nil check per operation.
type engineMetrics struct {
	seriesIngested *obs.Counter

	similarTotal   *obs.Counter
	similarLat     *obs.Timer
	similarK       *obs.Histogram
	similarResults *obs.Counter

	linearTotal *obs.Counter
	linearLat   *obs.Timer

	periodsTotal *obs.Counter
	periodsLat   *obs.Timer

	burstsTotal *obs.Counter
	burstsLat   *obs.Timer

	qbbTotal   *obs.Counter
	qbbLat     *obs.Timer
	qbbResults *obs.Counter

	dtwTotal     *obs.Counter
	dtwLat       *obs.Timer
	dtwLB        *obs.Counter
	dtwFull      *obs.Counter
	dtwAbandoned *obs.Counter

	writeLockWait *obs.Timer
	writeLockHold *obs.Timer

	treeNodes      *obs.Counter
	treeBounds     *obs.Counter
	treeCandidates *obs.Counter
	treeRetrievals *obs.Counter
	treeLBPrunes   *obs.Counter
	treeExact      *obs.Counter
	treeSketch     *obs.Counter

	burstdb burstdb.Metrics // shared by both windows' tables
}

// newEngineMetrics registers (or re-binds) the engine's instruments. A nil
// registry yields all-nil instruments.
func newEngineMetrics(reg *obs.Registry) engineMetrics {
	kBuckets := obs.HistogramOpts{Start: 1, Factor: 2, Buckets: 12}
	return engineMetrics{
		seriesIngested: reg.Counter("engine_series_ingested_total", "series standardized and indexed by the engine"),

		similarTotal:   reg.Counter("engine_similar_total", "similarity searches served (KindSimilar + KindSimilarID)"),
		similarLat:     reg.Timer("engine_similar_latency_seconds", "similarity-search latency"),
		similarK:       reg.Histogram("engine_similar_k", "k per similarity search (k+1 for a search by ID)", kBuckets),
		similarResults: reg.Counter("engine_similar_results_total", "neighbours similarity searches found (a search by ID also finds its own series, which the answer leaves out)"),

		linearTotal: reg.Counter("engine_linear_scan_total", "linear-scan baseline searches served"),
		linearLat:   reg.Timer("engine_linear_scan_latency_seconds", "linear-scan latency"),

		periodsTotal: reg.Counter("engine_periods_total", "period detections served"),
		periodsLat:   reg.Timer("engine_periods_latency_seconds", "period-detection latency"),

		burstsTotal: reg.Counter("engine_bursts_total", "burst detections served"),
		burstsLat:   reg.Timer("engine_bursts_latency_seconds", "burst-detection latency"),

		qbbTotal:   reg.Counter("engine_qbb_total", "query-by-burst searches served"),
		qbbLat:     reg.Timer("engine_qbb_latency_seconds", "query-by-burst latency"),
		qbbResults: reg.Counter("engine_qbb_results_total", "matches returned by query-by-burst"),

		dtwTotal:     reg.Counter("engine_dtw_total", "DTW searches served"),
		dtwLat:       reg.Timer("engine_dtw_latency_seconds", "DTW search latency"),
		dtwLB:        reg.Counter("dtw_lb_computed_total", "LB_Keogh lower bounds evaluated by DTW searches"),
		dtwFull:      reg.Counter("dtw_full_total", "exact banded DTW computations started (candidates the bound cascade did not prune)"),
		dtwAbandoned: reg.Counter("dtw_abandoned_total", "exact DTW computations cut short by early abandoning"),

		writeLockWait: reg.Timer("engine_write_lock_wait_seconds", "time spent acquiring the engine write lock (Add)"),
		writeLockHold: reg.Timer("engine_write_lock_hold_seconds", "time Add holds the engine write lock: store append, index insert, burst rows"),

		treeNodes:      reg.Counter("vptree_nodes_visited_total", "index nodes traversed (0: the similarity search scans, it walks no tree)"),
		treeBounds:     reg.Counter("vptree_bounds_computed_total", "lower/upper bound evaluations against compressed objects"),
		treeCandidates: reg.Counter("vptree_candidates_total", "compressed candidates surviving the scan's filter"),
		treeRetrievals: reg.Counter("vptree_full_retrievals_total", "uncompressed sequences fetched for refinement"),
		treeLBPrunes:   reg.Counter("vptree_lb_prunes_total", "candidates dropped by their lower bound"),
		treeExact:      reg.Counter("vptree_exact_distances_total", "exact distance evaluations during refinement"),
		treeSketch:     reg.Counter("vptree_sketch_skips_total", "refinement candidates the store's sketch kept from being fetched"),

		burstdb: burstDBMetrics(reg),
	}
}

// recordSearch promotes one search's transient vptree.Stats into the
// cumulative registry counters.
func (m *engineMetrics) recordSearch(st vptree.Stats) {
	m.treeNodes.Add(int64(st.NodesVisited))
	m.treeBounds.Add(int64(st.BoundsComputed))
	m.treeCandidates.Add(int64(st.Candidates))
	m.treeRetrievals.Add(int64(st.FullRetrievals))
	m.treeLBPrunes.Add(int64(st.LBPrunes))
	m.treeExact.Add(int64(st.ExactDistances))
	m.treeSketch.Add(int64(st.SketchSkips))
}

// dtwStats is the work of one DTW cascade: the LB_Keogh bounds it
// computed, the exact DTWs it began and the ones that abandoned.
type dtwStats struct{ LB, Full, Abandoned int }

// recordDTW promotes one DTW cascade's work into the cumulative registry
// counters.
func (m *engineMetrics) recordDTW(st dtwStats) {
	m.dtwLB.Add(int64(st.LB))
	m.dtwFull.Add(int64(st.Full))
	m.dtwAbandoned.Add(int64(st.Abandoned))
}

// burstDBMetrics builds the shared burstdb counter set (both windows feed
// the same totals).
func burstDBMetrics(reg *obs.Registry) burstdb.Metrics {
	return burstdb.Metrics{
		Queries:     reg.Counter("burstdb_queries_total", "overlap queries executed"),
		RowsScanned: reg.Counter("burstdb_rows_scanned_total", "burst rows touched by overlap queries"),
		RowsMatched: reg.Counter("burstdb_rows_matched_total", "burst rows satisfying both overlap predicates"),
		BTreeProbes: reg.Counter("burstdb_btree_probes_total", "B-tree index entries followed by overlap queries"),
		Candidates:  reg.Counter("burstdb_qbb_candidates_total", "candidate sequences located by query-by-burst"),
		Matches:     reg.Counter("burstdb_qbb_matches_total", "query-by-burst candidates with BSim > 0"),
	}
}

// annotateSearch attaches a search's work counters to a span.
func annotateSearch(sp *obs.Span, st vptree.Stats) {
	if sp == nil {
		return
	}
	sp.Annotate("bounds_computed", strconv.Itoa(st.BoundsComputed))
	sp.Annotate("candidates", strconv.Itoa(st.Candidates))
	sp.Annotate("full_retrievals", strconv.Itoa(st.FullRetrievals))
	sp.Annotate("sketch_skips", strconv.Itoa(st.SketchSkips))
	sp.Annotate("lb_prunes", strconv.Itoa(st.LBPrunes))
}

// annotateDTW attaches a DTW cascade's work counters to its span.
func annotateDTW(sp *obs.Span, st dtwStats) {
	if sp == nil {
		return
	}
	sp.Annotate("lb_computed", strconv.Itoa(st.LB))
	sp.Annotate("full_dtw", strconv.Itoa(st.Full))
	sp.Annotate("abandoned", strconv.Itoa(st.Abandoned))
}

// Hub returns the observability hub the engine was built with (nil when
// observability is disabled).
func (e *Engine) Hub() *obs.Hub { return e.hub }
