package core

import (
	"context"
	"io"
	"log/slog"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

// explained runs req with Request.Explain set and returns the response,
// failing the test on error or a missing report.
func explained(t *testing.T, e Searcher, req Request) *Response {
	t.Helper()
	req.Explain = true
	resp, err := e.Query(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Explain == nil {
		t.Fatal("Request.Explain produced no report")
	}
	return resp
}

// TestExplainSimilar checks that an explained query returns the same answer
// as the plain one, that the prune attribution balances, and that the report
// rides on the request's kept trace.
func TestExplainSimilar(t *testing.T) {
	hub := obs.NewHub()
	e, g := buildEngine(t, 60, Config{Budget: 12, Obs: hub}, 7)
	req := Request{Kind: KindSimilar, Values: g.Queries(1)[0].Values, K: 3}

	plain, err := e.Query(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	resp := explained(t, e, req)
	rep := resp.Explain
	if !reflect.DeepEqual(resp.Neighbors, plain.Neighbors) || resp.Stats != plain.Stats {
		t.Fatalf("explained answer differs from plain: %+v %+v vs %+v %+v",
			resp.Neighbors, resp.Stats, plain.Neighbors, plain.Stats)
	}

	if rep.Schema != ExplainSchemaVersion || rep.Op != "similar_queries" || rep.K != 3 {
		t.Errorf("report header: %+v", rep)
	}
	if rep.Results != len(resp.Neighbors) {
		t.Errorf("Results = %d, want %d", rep.Results, len(resp.Neighbors))
	}
	if rep.Truncated || rep.Approximate {
		t.Errorf("exact unbudgeted search reported truncated=%v approximate=%v", rep.Truncated, rep.Approximate)
	}
	if rep.Index == nil || rep.Index.Detail == nil {
		t.Fatal("VP-tree engine produced no index detail")
	}
	d := rep.Index.Detail
	if !d.Balanced() || d.Unrefined != 0 {
		t.Errorf("prune attribution of an ungated search: collected %d != %d+%d+%d+%d, unrefined %d",
			d.Collected, d.FilterLBPrunes, d.CutoffSkips, d.SketchSkips, d.FullRetrievals, d.Unrefined)
	}
	if rep.Index.Stats != resp.Stats {
		t.Errorf("report stats %+v, response stats %+v", rep.Index.Stats, resp.Stats)
	}
	if len(rep.Phases) == 0 {
		t.Error("no phases recorded")
	}

	// The report must be retrievable from the hub's kept traces.
	entries := hub.Tracer().Explains()
	if len(entries) == 0 {
		t.Fatal("no kept trace carries an explain report")
	}
	if got, ok := entries[0].Report.(*ExplainReport); !ok || got != rep {
		t.Errorf("last explained trace holds %T %v, want the returned report", entries[0].Report, entries[0].Report)
	}

	// Rendering must show the balanced attribution line.
	var sb strings.Builder
	rep.Render(&sb)
	out := sb.String()
	for _, want := range []string{"EXPLAIN similar_queries", "prune attribution", "rejected by the store's sketch", "[ok]"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered report missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "MISMATCH") {
		t.Errorf("rendered report flags a mismatch:\n%s", out)
	}
}

// TestExplainSimilarID checks self-exclusion and the query name field.
func TestExplainSimilarID(t *testing.T) {
	hub := obs.NewHub()
	e, _ := buildEngine(t, 40, Config{Budget: 10, Obs: hub}, 9)
	resp := explained(t, e, Request{Kind: KindSimilarID, ID: 0, K: 3})
	for _, n := range resp.Neighbors {
		if n.ID == 0 {
			t.Error("explained KindSimilarID returned the query itself")
		}
	}
	rep := resp.Explain
	if rep.Op != "similar_to_id" || rep.Query != e.Name(0) {
		t.Errorf("report header: op=%q query=%q", rep.Op, rep.Query)
	}
	if rep.Index == nil || rep.Index.Detail == nil || !rep.Index.Detail.Balanced() {
		t.Error("index detail missing or unbalanced")
	}
}

// gatedExplainCases are the gates under which the explain identity must
// still balance.
var gatedExplainCases = map[string]func(*Request){
	"max_exact": func(r *Request) { r.Budget.MaxExactDistances = 2 },
	"max_nodes": func(r *Request) { r.Budget.MaxNodeVisits = 6 },
	"delta":     func(r *Request) { r.Approx.Delta = 0.6 },
	"epsilon":   func(r *Request) { r.Approx.Epsilon = 0.5 },
	"nprobe":    func(r *Request) { r.Approx.NProbe = 2 },
}

// checkGatedExplain asserts, for one explained response, that the candidate
// identity holds and that the report carries the response's outcome.
func checkGatedExplain(t *testing.T, label string, resp *Response) (unrefined int) {
	t.Helper()
	rep := resp.Explain
	if rep.Truncated != resp.Truncated || rep.Approximate != resp.Approximate ||
		rep.EpsilonUsed != resp.EpsilonUsed || rep.BoundFloor != resp.BoundFloor {
		t.Errorf("%s: report outcome %v/%v/%v/%v, response %v/%v/%v/%v", label,
			rep.Truncated, rep.Approximate, rep.EpsilonUsed, rep.BoundFloor,
			resp.Truncated, resp.Approximate, resp.EpsilonUsed, resp.BoundFloor)
	}
	d := rep.Index.Detail
	if !d.Balanced() {
		t.Errorf("%s: collected %d != filter %d + cutoff %d + sketch %d + full %d + unrefined %d",
			label, d.Collected, d.FilterLBPrunes, d.CutoffSkips, d.SketchSkips, d.FullRetrievals, d.Unrefined)
	}
	return d.Unrefined
}

// The explain identity was only ever evaluated with a nil gate; riding on
// Query it must also hold when a budget or the quality dial stops the search
// early, which is what the unrefined term is for. And explaining must not
// change the gated answer.
func TestExplainBalancedUnderGates(t *testing.T) {
	e, g := buildEngine(t, 120, Config{Budget: 10}, 11)
	for name, gate := range gatedExplainCases {
		sawUnrefined := false
		for _, q := range g.Queries(6) {
			req := Request{Kind: KindSimilar, Values: q.Values, K: 5}
			gate(&req)
			plain, err := e.Query(context.Background(), req)
			if err != nil {
				t.Fatal(err)
			}
			resp := explained(t, e, req)
			if !reflect.DeepEqual(resp.Neighbors, plain.Neighbors) || resp.Stats != plain.Stats ||
				resp.Truncated != plain.Truncated || resp.BoundFloor != plain.BoundFloor {
				t.Errorf("%s: explained answer differs from plain", name)
			}
			if checkGatedExplain(t, name, resp) > 0 {
				sawUnrefined = true
			}
		}
		if (name == "max_exact" || name == "max_nodes" || name == "delta") && !sawUnrefined {
			t.Errorf("%s: no query left a candidate unrefined; the case does not exercise the new term", name)
		}
	}
}

// TestExplainBurst checks the burst side of the report.
func TestExplainBurst(t *testing.T) {
	hub := obs.NewHub()
	e, _ := buildEngine(t, 40, Config{Budget: 10, Obs: hub}, 4)
	plain, err := queryByBurstOf(e, 0, 5, Long)
	if err != nil {
		t.Fatal(err)
	}
	resp := explained(t, e, Request{Kind: KindBurstID, ID: 0, K: 5, Window: Long})
	if !reflect.DeepEqual(resp.Matches, plain) {
		t.Fatalf("explained matches %+v, plain %+v", resp.Matches, plain)
	}
	rep := resp.Explain
	if rep.Op != "query_by_burst" || rep.Burst == nil {
		t.Fatalf("report: %+v", rep)
	}
	b := rep.Burst
	if b.Window != Long.String() {
		t.Errorf("Window = %q", b.Window)
	}
	if b.Detail == nil {
		t.Fatal("no burst detail")
	}
	if len(b.Detail.PerBurst) != b.QueryBursts {
		t.Errorf("PerBurst rows %d, QueryBursts %d", len(b.Detail.PerBurst), b.QueryBursts)
	}
	if rep.Query != e.Name(0) {
		t.Errorf("Query = %q, want %q", rep.Query, e.Name(0))
	}
	var sb strings.Builder
	rep.Render(&sb)
	if !strings.Contains(sb.String(), "burstdb:") {
		t.Errorf("rendered report missing burstdb section:\n%s", sb.String())
	}

	// By values: detection is a phase of its own.
	s, err := e.Series(0)
	if err != nil {
		t.Fatal(err)
	}
	rep = explained(t, e, Request{Kind: KindBurst, Values: s.Values, K: 5, Window: Long}).Explain
	if len(rep.Phases) != 2 || rep.Phases[0].Name != "burst_detect" || rep.Burst == nil {
		t.Errorf("by-values burst report: %+v", rep)
	}
}

// TestExplainedSlowQueryRetention checks that with a (tiny) slow threshold,
// an explained query is retained in the slow log with its report attached.
func TestExplainedSlowQueryRetention(t *testing.T) {
	hub := obs.NewHub()
	hub.Slow.SetThreshold(time.Nanosecond) // everything is slow
	hub.Slow.SetLogger(slog.New(slog.NewTextHandler(io.Discard, nil)))
	e, g := buildEngine(t, 40, Config{Budget: 10, Obs: hub}, 5)
	rep := explained(t, e, Request{Kind: KindSimilar, Values: g.Queries(1)[0].Values, K: 2}).Explain
	entries := hub.SlowLog().Snapshot()
	if len(entries) == 0 {
		t.Fatal("slow log is empty despite 1ns threshold")
	}
	found := false
	for _, en := range entries {
		if got, ok := en.Explain.(*ExplainReport); ok && got == rep {
			found = true
			if en.Trace.Root.Name != "similar_queries" {
				t.Errorf("slow entry trace = %q", en.Trace.Root.Name)
			}
		}
	}
	if !found {
		t.Error("slow log did not retain the explain report")
	}
}

// TestExplainWithoutObs checks the nil path: explained queries on an engine
// with no hub still work and still return reports, and every kind gets at
// least the request-level header.
func TestExplainWithoutObs(t *testing.T) {
	e, g := buildEngine(t, 30, Config{Budget: 8}, 6)
	q := g.Queries(1)[0]
	resp := explained(t, e, Request{Kind: KindSimilar, Values: q.Values, K: 2})
	if len(resp.Neighbors) != 2 || resp.Explain.Index == nil {
		t.Fatalf("nil-obs explained query: %d results, rep %+v", len(resp.Neighbors), resp.Explain)
	}
	if rep := explained(t, e, Request{Kind: KindBurstID, ID: 0, K: 3}).Explain; rep.Burst == nil {
		t.Fatalf("nil-obs explained burst query: %+v", rep)
	}
	rep := explained(t, e, Request{Kind: KindLinear, Values: q.Values, K: 2}).Explain
	if rep.Op != "linear_scan" || rep.Results != 2 || rep.Index != nil || rep.Burst != nil {
		t.Errorf("linear scan report: %+v", rep)
	}
}
