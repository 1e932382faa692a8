package core

import (
	"fmt"
	"io"
	"time"

	"repro/internal/burstdb"
	"repro/internal/knn"
	"repro/internal/vptree"
)

// ExplainSchemaVersion versions the JSON shape of ExplainReport. Bump when
// renaming or re-meaning fields so stored reports stay interpretable.
// Version 2: reports come from Query itself (Request.Explain), so they carry
// the request's outcome (truncated, approximate, ...), the index detail has
// an `unrefined` term, and a sharded engine nests its shards' reports.
// Version 3: the index detail has a `sketch_skips` term (candidates the
// store's sketch kept from being fetched; `SketchSkips` in the stats), which
// joins the checked identity.
// Version 4: the index is the scan ("kind": "scan"): the detail reports
// blocks, bounds and abandoned bounds, and the tree's height, per-level rows
// and guided descent are gone.
const ExplainSchemaVersion = 4

// Phase is one timed stage of an explained query.
type Phase struct {
	Name string  `json:"name"`
	MS   float64 `json:"ms"`
}

// IndexExplain describes the index side of an explained similarity search.
type IndexExplain struct {
	// Kind names the index: "scan" (schema 3 reports said "vptree"). Method,
	// Budget and Size describe the features scanned: their representation
	// and how many the arena holds.
	Kind   string `json:"kind"`
	Method string `json:"method"`
	Budget int    `json:"budget"`
	Size   int    `json:"size"`
	// Stats is the flat per-search work summary.
	Stats vptree.Stats `json:"stats"`
	// Detail is the scan's work and prune-attribution report.
	Detail *knn.ScanStats `json:"detail,omitempty"`
}

// BurstExplain describes the burst-database side of an explained
// query-by-burst.
type BurstExplain struct {
	// Window is the moving-average window the query ran against.
	Window string `json:"window"`
	// QueryBursts is the number of bursts in the query's pattern.
	QueryBursts int `json:"query_bursts"`
	// Plan is the overlap scan's plan (see Detail for per-burst plans),
	// RowsScanned/RowsMatched the aggregate scan work.
	Plan        string `json:"plan"`
	RowsScanned int    `json:"rows_scanned"`
	RowsMatched int    `json:"rows_matched"`
	// Detail is the per-burst overlap-scan report including B-tree probes.
	Detail *burstdb.QBBExplain `json:"detail,omitempty"`
}

// ExplainReport is the structured account of one Query run with
// Request.Explain: what ran, how long each phase took, how the request ended
// and — for index searches — where every collected candidate went (pruned by
// which bound, skipped, examined, or left unrefined by the gate). It
// describes the very search that produced the response beside it, budget,
// quality dial and all.
type ExplainReport struct {
	Schema int `json:"schema"`
	// Op is the request's trace name ("similar_queries", "similar_to_id",
	// "query_by_burst", ...; "sharded_<kind>" for a scatter-gather report).
	Op string `json:"op"`
	// Query names the query series when it is an indexed one.
	Query string `json:"query,omitempty"`
	K     int    `json:"k"`
	// Results is the number of neighbours / matches returned.
	Results int     `json:"results"`
	TotalMS float64 `json:"total_ms"`
	// Truncated, Approximate, EpsilonUsed and BoundFloor are the response's
	// (see Response): whether a budget cut the search short and what the
	// quality dial did to it.
	Truncated   bool          `json:"truncated"`
	Approximate bool          `json:"approximate"`
	EpsilonUsed float64       `json:"epsilon_used,omitempty"`
	BoundFloor  float64       `json:"bound_floor,omitempty"`
	Phases      []Phase       `json:"phases"`
	Index       *IndexExplain `json:"index,omitempty"`
	Burst       *BurstExplain `json:"burst,omitempty"`
	// Shards holds the per-shard reports of a sharded engine's query, in
	// live-shard order; the enclosing report then carries only the header.
	Shards []*ExplainReport `json:"shards,omitempty"`
}

func msSince(t time.Time) float64 {
	return float64(time.Since(t)) / float64(time.Millisecond)
}

// Finish stamps the request-level header of a report from the response it
// explains — creating the report when the kind's handler had no index or
// burst detail to add — and returns it. The Envelope ends an explained
// request here, and QueryGated a shard's part of one.
func (r *ExplainReport) Finish(op string, k int, resp *Response, start time.Time) *ExplainReport {
	if r == nil {
		r = &ExplainReport{}
	}
	r.Schema, r.Op, r.K = ExplainSchemaVersion, op, k
	r.Results = len(resp.Neighbors) + len(resp.Matches)
	r.Truncated, r.Approximate = resp.Truncated, resp.Approximate
	r.EpsilonUsed, r.BoundFloor = resp.EpsilonUsed, resp.BoundFloor
	r.TotalMS = msSince(start)
	return r
}

// Render writes the report as the human-readable text the `explain` REPL
// command prints.
func (r *ExplainReport) Render(w io.Writer) {
	fmt.Fprintf(w, "EXPLAIN %s", r.Op)
	if r.Query != "" {
		fmt.Fprintf(w, " query=%q", r.Query)
	}
	fmt.Fprintf(w, " k=%d results=%d", r.K, r.Results)
	if r.Truncated {
		fmt.Fprint(w, " truncated")
	}
	if r.Approximate {
		fmt.Fprintf(w, " approximate(epsilon=%g floor=%.3f)", r.EpsilonUsed, r.BoundFloor)
	}
	fmt.Fprintf(w, "\n  total %.3f ms", r.TotalMS)
	if len(r.Phases) > 0 {
		fmt.Fprint(w, "  (")
		for i, p := range r.Phases {
			if i > 0 {
				fmt.Fprint(w, ", ")
			}
			fmt.Fprintf(w, "%s %.3f", p.Name, p.MS)
		}
		fmt.Fprint(w, ")")
	}
	fmt.Fprintln(w)
	if r.Index != nil {
		r.Index.render(w)
	}
	if r.Burst != nil {
		r.Burst.render(w)
	}
	for i, sh := range r.Shards {
		fmt.Fprintf(w, "shard %d: ", i)
		sh.Render(w)
	}
}

func (x *IndexExplain) render(w io.Writer) {
	d := x.Detail
	fmt.Fprintf(w, "  index: %s method=%s budget=%d size=%d sigma_ub=%.3f\n",
		x.Kind, x.Method, x.Budget, x.Size, d.SigmaUB)
	fmt.Fprintf(w, "  scan: %d blocks, %d bounds, %d abandoned past sigma_ub\n",
		d.Blocks, d.BoundsComputed, d.Abandoned)
	fmt.Fprintf(w, "  prune attribution over %d collected candidates:\n", d.Collected)
	fmt.Fprintf(w, "    pruned by %s lower bound (final sigma_ub filter) %6d\n", x.Method, d.FilterLBPrunes)
	fmt.Fprintf(w, "    skipped by lower-bound cutoff during refinement   %6d\n", d.CutoffSkips)
	fmt.Fprintf(w, "    rejected by the store's sketch before the read    %6d\n", d.SketchSkips)
	fmt.Fprintf(w, "    examined (full sequences retrieved)               %6d\n", d.FullRetrievals)
	fmt.Fprintf(w, "    left unrefined by the gate (delta cut, budget)    %6d\n", d.Unrefined)
	sum := d.FilterLBPrunes + d.CutoffSkips + d.SketchSkips + d.FullRetrievals + d.Unrefined
	check := "ok"
	if !d.Balanced() {
		check = "MISMATCH"
	}
	fmt.Fprintf(w, "    sum %d + %d + %d + %d + %d = %d of %d collected [%s]\n",
		d.FilterLBPrunes, d.CutoffSkips, d.SketchSkips, d.FullRetrievals, d.Unrefined, sum, d.Collected, check)
	fmt.Fprintf(w, "  refinement: %d exact distances, %d early abandons\n",
		d.ExactDistances, d.EarlyAbandons)
	fmt.Fprintf(w, "  phase wall: scan %.3f ms, filter %.3f ms, refine %.3f ms\n",
		d.ScanMS, d.FilterMS, d.RefineMS)
}

func (b *BurstExplain) render(w io.Writer) {
	fmt.Fprintf(w, "  burstdb: window=%s query_bursts=%d plan=%s rows_scanned=%d rows_matched=%d\n",
		b.Window, b.QueryBursts, b.Plan, b.RowsScanned, b.RowsMatched)
	if d := b.Detail; d != nil {
		fmt.Fprintf(w, "  %5s %7s %7s %18s %9s %9s\n",
			"burst", "start", "end", "plan", "scanned", "matched")
		for i, s := range d.PerBurst {
			fmt.Fprintf(w, "  %5d %7d %7d %18s %9d %9d\n",
				i, s.QueryStart, s.QueryEnd, s.Plan, s.RowsScanned, s.RowsMatched)
		}
		fmt.Fprintf(w, "  b-tree probes %d; %d candidate sequences, %d with BSim > 0\n",
			d.BTreeProbes, d.Candidates, d.Matches)
	}
}

// indexReport is the handler-side half of an explained index search: the
// phase before the index (standardize or fetch), then the scan's own, over
// size features at budget.
func indexReport(pre Phase, budget, size int, ss knn.ScanStats, st vptree.Stats) *ExplainReport {
	return &ExplainReport{
		Phases: []Phase{pre, {Name: "scan", MS: ss.ScanMS}, {Name: "filter", MS: ss.FilterMS}, {Name: "refine", MS: ss.RefineMS}},
		Index:  &IndexExplain{Kind: "scan", Method: "BestMinError", Budget: budget, Size: size, Stats: st, Detail: &ss},
	}
}
