package core

import (
	"context"
	"testing"

	"repro/internal/obs"
)

// counterValue fetches a registered counter's value; registering here is safe
// because the engine has already claimed the name with the same kind.
func counterValue(t *testing.T, reg *obs.Registry, name string) int64 {
	t.Helper()
	return reg.Counter(name, "").Value()
}

// TestSimilarQueriesObservability is the integration test for the obs layer:
// one SimilarQueries call must move the engine and vptree metrics and leave a
// trace whose span tree includes the index search.
func TestSimilarQueriesObservability(t *testing.T) {
	hub := obs.NewHub()
	e, g := buildEngine(t, 60, Config{Budget: 12, Obs: hub}, 7)
	reg := hub.Registry()

	if got := counterValue(t, reg, "engine_series_ingested_total"); got != int64(e.Len()) {
		t.Errorf("engine_series_ingested_total = %d, want %d", got, e.Len())
	}

	q := g.Queries(1)[0]
	res, st, err := similarQueries(e, q.Values, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 3 {
		t.Fatalf("got %d results", len(res))
	}

	if got := counterValue(t, reg, "engine_similar_total"); got != 1 {
		t.Errorf("engine_similar_total = %d, want 1", got)
	}
	if got := counterValue(t, reg, "engine_similar_results_total"); got != 3 {
		t.Errorf("engine_similar_results_total = %d, want 3", got)
	}
	// The promoted vptree counters must agree with the returned Stats.
	for name, want := range map[string]int{
		"vptree_nodes_visited_total":   st.NodesVisited,
		"vptree_bounds_computed_total": st.BoundsComputed,
		"vptree_lb_prunes_total":       st.LBPrunes,
		"vptree_exact_distances_total": st.ExactDistances,
		"vptree_full_retrievals_total": st.FullRetrievals,
		"vptree_sketch_skips_total":    st.SketchSkips,
	} {
		if got := counterValue(t, reg, name); got != int64(want) {
			t.Errorf("%s = %d, want %d (returned Stats)", name, got, want)
		}
	}
	// The scan walks no tree: every search bounds rows and visits no node.
	if counterValue(t, reg, "vptree_bounds_computed_total") == 0 || counterValue(t, reg, "vptree_nodes_visited_total") != 0 {
		t.Error("vptree_bounds_computed_total is zero, or vptree_nodes_visited_total is not, after a search")
	}
	// A single query may prune nothing on a tiny dataset; a small workload
	// must show lower-bound pruning at work.
	for _, q := range g.Queries(8) {
		if _, _, err := similarQueries(e, q.Values, 3); err != nil {
			t.Fatal(err)
		}
	}
	if counterValue(t, reg, "vptree_lb_prunes_total") == 0 {
		t.Error("vptree_lb_prunes_total is zero after a query workload")
	}
	if counterValue(t, reg, "vptree_sketch_skips_total") == 0 {
		t.Error("vptree_sketch_skips_total is zero after a query workload")
	}
	// Instrumented seqstore: full retrievals read sequence bytes.
	if got := counterValue(t, reg, "seqstore_reads_total"); got < int64(st.FullRetrievals) {
		t.Errorf("seqstore_reads_total = %d, want >= %d", got, st.FullRetrievals)
	}
	lat := reg.Timer("engine_similar_latency_seconds", "").Histogram()
	if lat.Count() != 9 {
		t.Errorf("engine_similar_latency_seconds count = %d, want 9", lat.Count())
	}

	// The call must have left a trace with the index_search span.
	snap := hub.Tracer().Snapshot()
	if len(snap) == 0 {
		t.Fatal("no traces retained")
	}
	rec := snap[0]
	if rec.Root.Name != "similar_queries" {
		t.Fatalf("latest trace = %q, want similar_queries", rec.Root.Name)
	}
	var names []string
	for _, sp := range rec.Root.Children {
		names = append(names, sp.Name)
	}
	found := false
	for _, n := range names {
		if n == "index_search" {
			found = true
		}
	}
	if !found {
		t.Errorf("trace spans = %v, want an index_search span", names)
	}

	// A second call through SimilarToID reuses the same instruments. Its
	// search runs k+1 and finds the query's own series too, which the answer
	// leaves out: the engine counts the search's k and results.
	results := counterValue(t, reg, "engine_similar_results_total")
	if res, _, err := similarToID(e, 0, 2); err != nil || len(res) != 2 {
		t.Fatalf("SimilarToID k = 2: %v (%v)", res, err)
	}
	if got := counterValue(t, reg, "engine_similar_total"); got != 10 {
		t.Errorf("engine_similar_total after SimilarToID = %d, want 10", got)
	}
	if got := counterValue(t, reg, "engine_similar_results_total") - results; got != 3 {
		t.Errorf("engine_similar_results_total rose by %d after SimilarToID k = 2, want 3", got)
	}
	if lat.Count() != 10 {
		t.Errorf("latency count after SimilarToID = %d, want 10", lat.Count())
	}
	if hub.Tracer().Snapshot()[0].Root.Name != "similar_to_id" {
		t.Error("SimilarToID did not emit a similar_to_id trace")
	}
}

// TestEngineWithoutObs checks the nil path: no hub, everything still works
// and Hub() reports nil.
func TestEngineWithoutObs(t *testing.T) {
	e, g := buildEngine(t, 30, Config{Budget: 8}, 8)
	if e.Hub() != nil {
		t.Error("engine without Config.Obs has a hub")
	}
	q := g.Queries(1)[0]
	if _, _, err := similarQueries(e, q.Values, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := linearScan(e, q.Values, 2); err != nil {
		t.Fatal(err)
	}
}

// TestQueryByBurstObservability exercises the burstdb metric sinks and the
// query_by_burst trace through the engine path.
func TestQueryByBurstObservability(t *testing.T) {
	hub := obs.NewHub()
	e, _ := buildEngine(t, 40, Config{Budget: 8, Obs: hub}, 9)
	reg := hub.Registry()

	s, err := e.Series(0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := queryByBurst(e, s.Values, 3, Short); err != nil {
		t.Fatal(err)
	}
	if got := counterValue(t, reg, "engine_qbb_total"); got != 1 {
		t.Errorf("engine_qbb_total = %d, want 1", got)
	}
	if counterValue(t, reg, "burstdb_queries_total") == 0 {
		t.Error("burstdb_queries_total is zero after QueryByBurst")
	}
	snap := hub.Tracer().Snapshot()
	if len(snap) == 0 || snap[0].Root.Name != "query_by_burst" {
		t.Fatalf("expected a query_by_burst trace, got %+v", snap)
	}
}

// TestLoadEngineWiresObs checks that an engine restored from disk re-wires
// the hub passed at load time (LoadEngine does not run NewEngine).
func TestLoadEngineWiresObs(t *testing.T) {
	e, g := buildEngine(t, 30, Config{Budget: 8}, 10)
	dir := t.TempDir()
	if err := e.Save(dir); err != nil {
		t.Fatal(err)
	}
	hub := obs.NewHub()
	loaded, err := LoadEngine(dir, Config{Budget: 8, Obs: hub})
	if err != nil {
		t.Fatal(err)
	}
	defer loaded.Close()
	if got := counterValue(t, hub.Registry(), "engine_series_ingested_total"); got != int64(loaded.Len()) {
		t.Errorf("loaded engine_series_ingested_total = %d, want %d", got, loaded.Len())
	}
	q := g.Queries(1)[0]
	if _, _, err := similarQueries(loaded, q.Values, 2); err != nil {
		t.Fatal(err)
	}
	if counterValue(t, hub.Registry(), "engine_similar_total") != 1 {
		t.Error("loaded engine did not count SimilarQueries")
	}
	if counterValue(t, hub.Registry(), "seqstore_reads_total") == 0 {
		t.Error("loaded engine store is not instrumented")
	}
}

// TestQueryWideEventAbortCauses pins the abort taxonomy: cancellation maps
// to "canceled", budget truncation to truncated+"budget".
func TestQueryWideEventAbortCauses(t *testing.T) {
	t.Parallel()
	e, hub, qvals := attrEngine(t, 2)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.Query(ctx, Request{Kind: KindSimilar, Values: qvals[0], K: 2}); err == nil {
		t.Fatal("cancelled query succeeded")
	}
	ev := hub.RequestLog().Snapshot()[0]
	if ev.Abort != "canceled" || ev.Error == "" {
		t.Errorf("cancelled event = %+v, want abort=canceled", ev)
	}

	resp, err := e.Query(context.Background(), Request{
		Kind: KindSimilar, Values: qvals[0], K: 2,
		Budget: Budget{MaxNodeVisits: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Truncated {
		t.Fatal("one-node budget did not truncate")
	}
	ev = hub.RequestLog().Snapshot()[0]
	if !ev.Truncated || ev.Abort != "budget" {
		t.Errorf("truncated event = %+v, want truncated abort=budget", ev)
	}
	if ev.MaxNodes != 1 {
		t.Errorf("event budget echo = %d, want 1", ev.MaxNodes)
	}
}
