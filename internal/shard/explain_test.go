package shard

import (
	"context"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
)

// Explain rides on Query, so a sharded engine fans it out: one report per
// live shard under one request-level header, the answer unchanged, and each
// shard's scan report balanced and adding up to the merged stats — also when
// a budget or the quality dial (split across the shards' child gates) stops
// the scans early, max_nodes and nprobe as row budgets.
func TestShardedExplain(t *testing.T) {
	data, queries := eqCorpus()
	hub := obs.NewHub()
	cfg := eqConfig(3)
	cfg.Obs = hub
	se, err := newSharded(core.SliceSource(data), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer se.Close()
	ctx := context.Background()

	gates := map[string]func(*core.Request){
		"ungated":   func(*core.Request) {},
		"max_exact": func(r *core.Request) { r.Budget.MaxExactDistances = 4 },
		"max_nodes": func(r *core.Request) { r.Budget.MaxNodeVisits = 9 },
		"delta":     func(r *core.Request) { r.Approx.Delta = 0.6 },
		"epsilon":   func(r *core.Request) { r.Approx.Epsilon = 0.5 },
		"nprobe":    func(r *core.Request) { r.Approx.NProbe = 1 },
	}
	for name, gate := range gates {
		for _, q := range queries {
			req := core.Request{Kind: core.KindSimilar, Values: q.Values, K: 4}
			gate(&req)
			plain, err := se.Query(ctx, req)
			if err != nil {
				t.Fatal(err)
			}
			req.Explain = true
			got, err := se.Query(ctx, req)
			if err != nil {
				t.Fatal(err)
			}
			requireSameResponse(t, name+": explain on vs off", plain, got)
			if got.Stats != plain.Stats || got.BoundFloor != plain.BoundFloor {
				t.Fatalf("%s: explaining changed stats or floor", name)
			}
			rep := got.Explain
			if rep == nil || rep.Op != "sharded_similar" || len(rep.Shards) != se.Shards() {
				t.Fatalf("%s: sharded report %+v", name, rep)
			}
			if rep.Truncated != got.Truncated || rep.Approximate != got.Approximate ||
				rep.EpsilonUsed != got.EpsilonUsed || rep.BoundFloor != got.BoundFloor || rep.Results != len(got.Neighbors) {
				t.Errorf("%s: report header %+v does not carry the response's outcome %+v", name, rep, got)
			}
			collected, sketched, fetched, bounds := 0, 0, 0, 0
			for i, sh := range rep.Shards {
				d := sh.Index.Detail
				if st := sh.Index.Stats; sh.Index.Kind != "scan" || d.BoundsComputed != st.BoundsComputed ||
					d.Abandoned > d.BoundsComputed || d.Blocks == 0 || st.NodesVisited != 0 || st.GuidedDescentHits != 0 {
					t.Errorf("%s shard %d: index %q, scan report %+v", name, i, sh.Index.Kind, d)
				}
				bounds += d.BoundsComputed
				if !d.Balanced() {
					t.Errorf("%s shard %d: collected %d != filter %d + cutoff %d + sketch %d + full %d + unrefined %d",
						name, i, d.Collected, d.FilterLBPrunes, d.CutoffSkips, d.SketchSkips, d.FullRetrievals, d.Unrefined)
				}
				if name == "ungated" && d.Unrefined != 0 {
					t.Errorf("ungated shard %d left %d candidates unrefined", i, d.Unrefined)
				}
				collected += d.Collected
				sketched += d.SketchSkips
				fetched += d.FullRetrievals
			}
			if collected == 0 {
				t.Errorf("%s: no shard collected a candidate", name)
			}
			if sketched != got.Stats.SketchSkips || fetched != got.Stats.FullRetrievals || bounds != got.Stats.BoundsComputed {
				t.Errorf("%s: shards report %d sketch skips, %d reads and %d bounds, the merged stats %d, %d and %d",
					name, sketched, fetched, bounds, got.Stats.SketchSkips, got.Stats.FullRetrievals, got.Stats.BoundsComputed)
			}
			if name == "max_nodes" && bounds > req.Budget.MaxNodeVisits || name == "nprobe" && bounds > se.Shards() {
				t.Errorf("%s: the shards bounded %d rows, past the row budget", name, bounds)
			}
		}
	}

	// By ID: the merged report names the query, and it — not a shard's — is
	// what the request's kept trace carries.
	resp, err := se.Query(ctx, core.Request{Kind: core.KindSimilarID, ID: 2, K: 3, Explain: true})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Explain.Query != se.Name(2) {
		t.Errorf("report query = %q, want %q", resp.Explain.Query, se.Name(2))
	}
	if ex := hub.Tracer().Explains(); len(ex) == 0 || ex[0].Report != any(resp.Explain) {
		t.Errorf("the last explained trace does not carry the merged report: %+v", ex)
	}
	var sb strings.Builder
	resp.Explain.Render(&sb)
	for _, want := range []string{"EXPLAIN sharded_similar_id", "shard 2: EXPLAIN similar_queries", "index: scan method=BestMinError", " blocks, ", "[ok]"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("rendered report missing %q:\n%s", want, sb.String())
		}
	}
	if strings.Contains(sb.String(), "MISMATCH") {
		t.Errorf("rendered report flags a mismatch:\n%s", sb.String())
	}
}
