package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strconv"
	"time"

	"repro/internal/burst"
	"repro/internal/dtw"
	"repro/internal/lifecycle"
	"repro/internal/obs"
	"repro/internal/seqstore"
	"repro/internal/spectral"
	"repro/internal/vptree"
)

// Kind selects a search family for Engine.Query: one request shape for every
// way the engine can be searched.
type Kind int

const (
	// KindUnknown is the zero value; Query rejects it.
	KindUnknown Kind = iota
	// KindSimilar is index-backed kNN over Request.Values.
	KindSimilar
	// KindSimilarID is index-backed kNN of indexed series Request.ID,
	// excluding the series itself.
	KindSimilarID
	// KindLinear is the exact linear-scan baseline with early abandoning
	// (§7.4) over Request.Values.
	KindLinear
	// KindDTW is banded Dynamic Time Warping kNN of series Request.ID
	// (Sakoe–Chiba band radius Request.Band), excluding the series itself —
	// the §8 extension ("a similar approach could prove useful ... for
	// expensive distance measures like dynamic time warping"). Candidates
	// are filtered with the linear-cost LB_Keogh bound before the quadratic
	// DP runs, mirroring the paper's filter-and-refine structure.
	KindDTW
	// KindSimilarPeriods is the §7.5 focused search: the series closest to
	// Request.ID when the distance is restricted to the spectral bins within
	// ±RelTol of Request.Periods, excluding the series itself. It scans the
	// database's spectra directly — the masked distance has no stored
	// compressed representation to index.
	KindSimilarPeriods
	// KindBurst is query-by-burst (§6.3) over bursts detected in
	// Request.Values.
	KindBurst
	// KindBurstID is query-by-burst of indexed series Request.ID, excluding
	// the series itself.
	KindBurstID
)

// String implements fmt.Stringer with the stable names the HTTP API uses.
func (k Kind) String() string {
	switch k {
	case KindSimilar:
		return "similar"
	case KindSimilarID:
		return "similar_id"
	case KindLinear:
		return "linear"
	case KindDTW:
		return "dtw"
	case KindSimilarPeriods:
		return "periods"
	case KindBurst:
		return "qbb"
	case KindBurstID:
		return "qbb_id"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Budget caps the work one Query may perform. The zero value is unlimited.
// Budgets degrade gracefully: when one expires mid-search the engine stops,
// refines what it already collected, and returns the best-so-far answer
// with Response.Truncated set — it does not error. Context cancellation is
// the opposite contract: the caller is gone, so Query aborts with the
// context's error and no results.
type Budget struct {
	// Deadline is the wall-clock budget measured from Query entry (0 =
	// none). A negative value is already expired and truncates immediately.
	Deadline time.Duration
	// MaxNodeVisits caps traversal/scan units: tree nodes visited, rows
	// scanned, bursts probed, candidates bounded (0 = unlimited).
	MaxNodeVisits int
	// MaxExactDistances caps exact distance computations during refinement
	// (0 = unlimited). This cap is strict — unlike the other two it is
	// never exceeded by the bounded best-so-far refinement grace.
	MaxExactDistances int
}

// limits resolves the budget against the request's entry instant.
func (b Budget) limits(now time.Time) lifecycle.Limits {
	l := lifecycle.Limits{MaxNodes: b.MaxNodeVisits, MaxExact: b.MaxExactDistances}
	if b.Deadline != 0 {
		l.Deadline = now.Add(b.Deadline)
	}
	return l
}

// Request is one query against the engine. Kind selects the search family
// and which of the other fields apply:
//
//	Kind                 input           extras
//	KindSimilar          Values, K       Budget
//	KindSimilarID        ID, K           Budget
//	KindLinear           Values, K       Budget
//	KindDTW              ID, K           Band, Budget
//	KindSimilarPeriods   ID, K           Periods, RelTol, Budget
//	KindBurst            Values, K       Window, Budget
//	KindBurstID          ID, K           Window, Budget
//
// Values-mode for the by-ID kinds: KindDTW and KindSimilarPeriods also
// accept a non-nil Values slice instead of an indexed ID — the search then
// runs for that curve, and ID becomes the sequence to exclude from the
// results (negative = exclude nothing). Callers building such requests
// must set ID explicitly (the zero value would silently exclude sequence
// 0). Likewise KindBurst/KindBurstID accept a pre-detected burst pattern
// via QueryBursts with the same ID-as-exclusion contract. These modes are
// how a sharded engine scatters an ID-addressed query to shards that do
// not own the ID (see internal/shard).
type Request struct {
	// Kind selects the search family.
	Kind Kind
	// Values is the raw query curve for the by-values kinds.
	Values []float64
	// Standardized, when set, declares Values already z-scored: the engine
	// uses them verbatim instead of standardizing again. The sharded
	// scatter path sets it so every shard searches bit-identical values
	// (re-standardizing an already standardized curve is not bit-stable in
	// floating point).
	Standardized bool
	// Prepared, when non-nil, is the already standardized and transformed
	// query of a KindSimilar request to a core.Engine, which searches with
	// it as-is and ignores Values. It is how the sharded scatter path hands
	// one query to N engines: built once per request, the same pointer in
	// every shard's sub-request, so the FFT and bound context are computed
	// once, not once per shard. It is only ever read (see
	// spectral.Prepared); whoever prepared it releases it, after the
	// Query returns.
	Prepared *spectral.Prepared
	// QueryBursts, when non-nil, is a pre-detected burst pattern for the
	// burst kinds: detection is skipped and the pattern is matched as-is,
	// with ID as the sequence to exclude (negative = none). An empty
	// non-nil slice is a valid (empty) pattern.
	QueryBursts []burst.Burst
	// ID is the indexed sequence for the by-ID kinds (or, in values-mode,
	// the sequence to exclude — see above).
	ID int
	// K is how many results to return (must be >= 1).
	K int
	// Window selects the burst database for the burst kinds (default Short).
	Window BurstWindow
	// Band is the Sakoe–Chiba band radius in days for KindDTW.
	Band int
	// Periods (in days, each positive and finite) focuses
	// KindSimilarPeriods; RelTol is the relative bin tolerance (0 = the
	// default 0.05; negative or non-finite is refused with ErrBadPeriods).
	Periods []float64
	RelTol  float64
	// Budget bounds the work of this query (see Budget).
	Budget Budget
	// Approx is the quality dial: how much answer quality this query trades
	// for latency (see Approx). The zero value is exact search.
	Approx Approx
	// QueueWait, when set by a serving front (admission control), is
	// recorded on the query's trace so slow-query entries expose admission
	// latency alongside execution time.
	QueueWait time.Duration
	// Explain asks for Response.Explain: a structured report of this very
	// search — same lock, gate, trace and metrics as without it. The answer
	// is identical either way; the cost is bookkeeping on the explained
	// request only.
	Explain bool
}

// Response is the uniform answer shape of Engine.Query.
type Response struct {
	// Kind echoes the request's search family.
	Kind Kind
	// Neighbors holds the results of the distance-based kinds (similar,
	// linear, dtw, periods).
	Neighbors []Neighbor
	// Matches holds the results of the burst kinds.
	Matches []BurstMatch
	// Stats reports index work for the index-backed kinds.
	Stats vptree.Stats
	// Truncated reports that a budget expired mid-search and Neighbors or
	// Matches is the best-so-far partial answer rather than the full one.
	Truncated bool
	// Approximate reports that at least one approximation decision fired:
	// the answer may differ from exact search, within the bounds below.
	Approximate bool
	// EpsilonUsed echoes the (1+ε) slack the search ran under when
	// Approximate is set.
	EpsilonUsed float64
	// BoundFloor is the proven lower bound on the distance of everything
	// the search discarded without exact evaluation (0 = no guarantee, as
	// after an ng-approximate stop). Each Neighbor's BoundGap derives from
	// it; see docs/approx.md for the bound algebra.
	BoundFloor float64
	// Explain is the report Request.Explain asked for (nil otherwise). It is
	// also attached to the query's trace, which the tail sampler then keeps
	// (served at /debug/explain).
	Explain *ExplainReport
}

// errBadK is the uniform k validation error of the Query surface.
var errBadK = errors.New("core: k must be >= 1")

// Query is the engine's unified search entry point: every search family
// behind one request/response shape, with a context-aware lifecycle.
//
//   - ctx cancellation or expiry aborts the search with the context's error
//     at node-visit/shard granularity; an already-expired context returns
//     before any index work.
//   - Request.Budget expiry degrades gracefully: the best-so-far answer is
//     returned with Response.Truncated set.
//
// Every call runs under one trace, joined from ctx or started, whose trace
// ID is the request's one identifier: its one wide event (the hub's
// RequestLog, /debug/requests?id=<trace_id>) and /v2/search's answer carry
// it. See Envelope and docs/api.md.
func (e *Engine) Query(ctx context.Context, req Request) (*Response, error) {
	return e.env.Run(ctx, req, e.search)
}

// search is the single engine's QueryBody: the request's family, no scatter.
func (e *Engine) search(ctx context.Context, g *lifecycle.Gate, req Request) (*Response, []int64, error) {
	resp, err := e.dispatch(ctx, g, req)
	return resp, nil, err
}

// QueryGated runs one shard's part of a request whose Envelope the caller
// runs: Budget and Approx are ignored and all work is accounted against g, a
// Split child of the request's gate (nil = unlimited), which the caller
// Absorbs back. It opens the family span under the caller's span on ctx,
// counts the family metrics and, with Request.Explain, returns the shard's
// own report; the wide event, outcome and abort/truncation counts are the
// caller's one request's.
func (e *Engine) QueryGated(ctx context.Context, req Request, g *lifecycle.Gate) (*Response, error) {
	req.K = min(req.K, e.Len())
	if g == nil {
		g = lifecycle.NewGate(ctx, lifecycle.Limits{})
	}
	start := time.Now()
	sp := obs.SpanFromContext(ctx).Child(traceName(req.Kind))
	defer sp.Finish()
	sp.Annotate("k", strconv.Itoa(req.K))
	resp, err := e.dispatch(obs.ContextWithSpan(ctx, sp), g, req)
	if err != nil {
		return nil, err
	}
	if resp.Truncated {
		sp.Annotate("truncated", "true")
	}
	stampApprox(resp, g.Epsilon(), g)
	if req.Explain {
		resp.Explain = resp.Explain.Finish(traceName(req.Kind), req.K, resp, start)
	}
	return resp, nil
}

// QueryBody is the engine-specific part of one request that an Envelope
// runs: the search itself, under the request's gate and with the family
// span on ctx. A scatter-gather body also returns how many results each
// live shard gave (the wide event's worker_spread); a single engine, nil.
type QueryBody func(ctx context.Context, g *lifecycle.Gate, req Request) (resp *Response, spread []int64, err error)

// Envelope is the one request lifecycle every Query runs in, on a single
// engine and on a sharded one alike: validation and the k clamp, the trace
// (joined or started; its ID names the request) and its lifecycle annotations,
// the request's one wide event, its outcome and the abort and truncation
// counters, the approximation stamp, and the explain header and attach.
// What differs between engines is only the QueryBody.
type Envelope struct {
	served    Searcher
	sharded   bool // names the request "sharded_<kind>"
	tracer    *obs.Tracer
	reqlog    *obs.RequestLog
	aborted   *obs.Counter
	truncated *obs.Counter
}

// NewEnvelope builds the lifecycle of the engine served, recording into hub
// (nil disables every record). sharded names the requests of a
// scatter-gather engine "sharded_<kind>" in the trace, the wide event and
// the explain report.
func NewEnvelope(hub *obs.Hub, served Searcher, sharded bool) *Envelope {
	reg := hub.Registry()
	return &Envelope{
		served:    served,
		sharded:   sharded,
		tracer:    hub.Tracer(),
		reqlog:    hub.RequestLog(),
		aborted:   reg.Counter("engine_query_aborted_total", "queries aborted by context cancellation or deadline expiry"),
		truncated: reg.Counter("engine_query_truncated_total", "queries returning budget-truncated partial results"),
	}
}

// Run runs one request through body inside the lifecycle (see Engine.Query
// for the contract).
func (v *Envelope) Run(ctx context.Context, req Request, body QueryBody) (*Response, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if req.Kind <= KindUnknown || req.Kind > KindBurstID {
		return nil, fmt.Errorf("core: unknown request kind %d", int(req.Kind))
	}
	if req.K < 1 {
		return nil, errBadK
	}
	if err := req.Approx.Validate(); err != nil {
		return nil, err
	}
	if err := checkFinite("the query", req.Values); err != nil {
		return nil, err
	}
	// A corpus never has more than Len() neighbours, so a larger k changes
	// no answer — but every family sizes buffers by k, and an absurd one
	// from the wire must not be able to exhaust memory.
	req.K = min(req.K, v.served.Len())
	start := time.Now()
	op, name := req.Kind.String(), traceName(req.Kind)
	if v.sharded {
		op = "sharded_" + op
		name = op
	}
	tr, sp, ctx, finishTrace := v.joinTrace(ctx, name)
	defer finishTrace()
	sp.Annotate("k", strconv.Itoa(req.K))
	if req.Explain {
		sp.Annotate("explain", "true")
	}
	annotateLifecycle(sp, req)
	ev := wideEvent(tr, start, op)
	ev.K = req.K
	ev.DeadlineMS = req.Budget.Deadline.Milliseconds()
	ev.MaxNodes = req.Budget.MaxNodeVisits
	ev.MaxExact = req.Budget.MaxExactDistances
	ev.QueueWaitMS = float64(req.QueueWait) / float64(time.Millisecond)
	var resp *Response
	g := lifecycle.NewGate(ctx, req.Approx.limits(req.Budget.limits(start)))
	// An already-dead context does zero index work: O(1) return from every
	// search family.
	err := ctx.Err()
	if err == nil {
		resp, ev.WorkerSpread, err = body(ctx, g, req)
		ev.Workers = len(ev.WorkerSpread)
	}
	ev.DurationMS = msSince(start)
	if err != nil {
		ev.Abort, ev.Error = abortCause(err), err.Error()
		aborted := ev.Abort != "error"
		if aborted {
			v.aborted.Inc()
		}
		tr.SetOutcome(obs.Outcome{Error: ev.Error, Aborted: aborted})
		v.reqlog.Record(ev)
		return nil, err
	}
	if resp.Truncated {
		// Budget degradation is worth seeing in /debug/slow even when the
		// query itself was fast.
		sp.Annotate("truncated", "true")
		v.truncated.Inc()
		ev.Truncated = true
		ev.Abort = "budget"
		tr.SetOutcome(obs.Outcome{Truncated: true})
	}
	// A scatter's children folded their ε/δ/ng decisions (and proven bound
	// floors) into g by Absorb, so every merged neighbour's BoundGap is
	// computed against the request-wide floor.
	stampApprox(resp, g.Epsilon(), g)
	if resp.Approximate {
		sp.Annotate("approximate", "true")
		sp.Annotate("epsilon_used", strconv.FormatFloat(resp.EpsilonUsed, 'g', -1, 64))
	}
	ev.NodesVisited = resp.Stats.NodesVisited
	ev.BoundsComputed = resp.Stats.BoundsComputed
	ev.Candidates = resp.Stats.Candidates
	ev.FullRetrievals = resp.Stats.FullRetrievals
	ev.LBPrunes = resp.Stats.LBPrunes
	ev.UBPrunes = resp.Stats.UBPrunes
	ev.Results = len(resp.Neighbors) + len(resp.Matches)
	v.reqlog.Record(ev)
	if req.Explain {
		resp.Explain = resp.Explain.Finish(name, req.K, resp, start)
		if req.Values == nil && req.Prepared == nil && req.QueryBursts == nil {
			resp.Explain.Query = v.served.Name(req.ID)
		}
		tr.Attach(resp.Explain)
	}
	return resp, nil
}

// recordHTTPError records the one wide event of a /v2/search request that
// was answered with an error before any query ran — refused by decode or
// lookup, or a panic — under the request's trace ID, so /debug/requests
// resolves every answered request, not only those that reached the engine.
func recordHTTPError(reqlog *obs.RequestLog, tr *obs.Trace, start time.Time, ve *V2Error) {
	ev := wideEvent(tr, start, "http_error")
	ev.DurationMS = msSince(start)
	ev.Abort, ev.Error = "error", ve.Error()
	reqlog.Record(ev)
}

// wideEvent begins the one wide event of a request: its trace ID (the
// request's one identifier), when it began and what it was.
func wideEvent(tr *obs.Trace, start time.Time, op string) obs.WideEvent {
	return obs.WideEvent{TraceID: tr.TraceID().String(), Time: start, Op: op}
}

// traceName maps a request kind onto the family's historical trace root
// name, so engine-owned traces keep the names /debug/traces and the slow
// log have always shown.
func traceName(k Kind) string {
	switch k {
	case KindSimilar:
		return "similar_queries"
	case KindSimilarID:
		return "similar_to_id"
	case KindLinear:
		return "linear_scan"
	case KindDTW:
		return "similar_dtw"
	case KindSimilarPeriods:
		return "similar_by_periods"
	case KindBurst, KindBurstID:
		return "query_by_burst"
	default:
		return "query"
	}
}

// joinTrace starts or joins the trace one request runs under and returns
// the trace, the family span, a context carrying both, and the finish
// function the caller must defer. When ctx carries a live trace (the HTTP
// layer owns the root) the family span is a child of its root and finish
// closes only the span; otherwise the family span is the root of a new
// trace, adopting any remote W3C context on ctx, and finish commits it.
// With tracing disabled everything returned is nil/no-op.
func (v *Envelope) joinTrace(ctx context.Context, name string) (*obs.Trace, *obs.Span, context.Context, func()) {
	if tr := obs.TraceFromContext(ctx); tr != nil {
		sp := tr.Root().Child(name)
		return tr, sp, obs.ContextWithSpan(ctx, sp), sp.Finish
	}
	tr, ctx := v.tracer.StartTraceCtx(ctx, name)
	sp := tr.Root()
	return tr, sp, obs.ContextWithSpan(ctx, sp), tr.Finish
}

// abortCause classifies why a request failed for the wide event's abort
// field: "canceled" and "deadline" for the context outcomes, "error" for
// everything else. Budget truncation is not an abort — it is flagged via
// WideEvent.Truncated with cause "budget".
func abortCause(err error) string {
	switch {
	case errors.Is(err, context.Canceled):
		return "canceled"
	case errors.Is(err, context.DeadlineExceeded):
		return "deadline"
	default:
		return "error"
	}
}

func (e *Engine) dispatch(ctx context.Context, g *lifecycle.Gate, req Request) (*Response, error) {
	switch req.Kind {
	case KindSimilar:
		return e.querySimilar(ctx, g, req)
	case KindSimilarID:
		return e.querySimilarID(ctx, g, req)
	case KindLinear:
		return e.queryLinear(ctx, g, req)
	case KindDTW:
		return e.queryDTW(ctx, g, req)
	case KindSimilarPeriods:
		return e.querySimilarPeriods(ctx, g, req)
	case KindBurst, KindBurstID:
		return e.queryBurst(ctx, g, req)
	default:
		return nil, fmt.Errorf("core: unknown request kind %d", int(req.Kind))
	}
}

// annotateLifecycle attaches budget and admission metadata to the family
// span so the slow-query log shows why a query was truncated or where it
// waited.
func annotateLifecycle(sp *obs.Span, req Request) {
	if sp == nil {
		return
	}
	if req.Budget.Deadline != 0 {
		sp.Annotate("deadline_ms", strconv.FormatInt(req.Budget.Deadline.Milliseconds(), 10))
	}
	if req.Budget.MaxNodeVisits > 0 {
		sp.Annotate("max_node_visits", strconv.Itoa(req.Budget.MaxNodeVisits))
	}
	if req.Budget.MaxExactDistances > 0 {
		sp.Annotate("max_exact_distances", strconv.Itoa(req.Budget.MaxExactDistances))
	}
	if req.Approx.Epsilon > 0 {
		sp.Annotate("epsilon", strconv.FormatFloat(req.Approx.Epsilon, 'g', -1, 64))
	}
	if req.Approx.Delta > 0 {
		sp.Annotate("delta", strconv.FormatFloat(req.Approx.Delta, 'g', -1, 64))
	}
	if req.Approx.NProbe > 0 {
		sp.Annotate("nprobe", strconv.Itoa(req.Approx.NProbe))
	}
	if req.QueueWait > 0 {
		sp.Annotate("queue_wait_ms", strconv.FormatFloat(
			float64(req.QueueWait)/float64(time.Millisecond), 'f', 3, 64))
	}
}

// prepare builds the spectrum and bound context of the standardized query
// z — the work a search does before it touches the index, done once per
// request (engine_query_prepares_total counts it). The caller releases the
// result once the search has returned.
func (e *Engine) prepare(z []float64) (*spectral.Prepared, error) {
	e.met.queryPrepares.Inc()
	return spectral.Prepare(z)
}

// searchIndexLimited runs a gated kNN query on the VP-tree. Refinement reads
// go through a context-aware store view so a hung-up caller aborts even
// between the gate's amortized checks. exp, when non-nil, receives the
// search's explain report.
func (e *Engine) searchIndexLimited(ctx context.Context, q *spectral.Prepared, k int, g *lifecycle.Gate, exp *vptree.Explain) ([]vptree.Result, vptree.Stats, bool, error) {
	return e.tree.SearchPrepared(q, k, nil, seqstore.WithContext(ctx, e.store), g, exp)
}

// explainDetail returns the collector an explained index search fills: nil
// when the request does not ask for one.
func (e *Engine) explainDetail(req Request) *vptree.Explain {
	if !req.Explain {
		return nil
	}
	return new(vptree.Explain)
}

// queryValues resolves a request's Values to standardized z-values,
// honouring Request.Standardized (pre-standardized curves pass through
// bit-for-bit).
func (e *Engine) queryValues(req Request) ([]float64, error) {
	if req.Standardized {
		if len(req.Values) != e.SeqLen() {
			return nil, spectral.ErrMismatch
		}
		return req.Values, nil
	}
	return e.standardizeQuery(req.Values)
}

func (e *Engine) querySimilar(ctx context.Context, g *lifecycle.Gate, req Request) (*Response, error) {
	defer e.met.similarLat.Start()()
	e.met.similarTotal.Inc()
	e.met.similarK.Observe(float64(req.K))
	fam := obs.SpanFromContext(ctx)
	began := time.Now()

	q := req.Prepared
	if q == nil {
		sp := fam.Child("standardize")
		z, err := e.queryValues(req)
		sp.Finish()
		if err != nil {
			return nil, err
		}
		if q, err = e.prepare(z); err != nil {
			return nil, err
		}
		defer q.Release() // a caller's Prepared is the caller's to release
	}
	pre := Phase{Name: "standardize", MS: msSince(began)}
	e.mu.RLock()
	defer e.mu.RUnlock()
	sp := fam.Child("index_search")
	vexp := e.explainDetail(req)
	res, st, truncated, err := e.searchIndexLimited(ctx, q, req.K, g, vexp)
	sp.Finish()
	annotateSearch(sp, st)
	e.met.recordSearch(st)
	if err != nil {
		return nil, err
	}
	e.met.similarResults.Add(int64(len(res)))
	resp := &Response{
		Kind: req.Kind, Neighbors: e.toNeighborsLocked(res),
		Stats: st, Truncated: truncated,
	}
	if req.Explain {
		resp.Explain = indexReport(pre, vexp, st)
	}
	return resp, nil
}

func (e *Engine) querySimilarID(ctx context.Context, g *lifecycle.Gate, req Request) (*Response, error) {
	defer e.met.similarLat.Start()()
	e.met.similarTotal.Inc()
	e.met.similarK.Observe(float64(req.K))
	fam := obs.SpanFromContext(ctx)
	fam.Annotate("id", strconv.Itoa(req.ID))

	e.mu.RLock()
	defer e.mu.RUnlock()
	began := time.Now()
	sp := fam.Child("fetch_standardized")
	z, err := e.StandardizedView(req.ID)
	sp.Finish()
	if err != nil {
		return nil, err
	}
	q, err := e.prepare(z)
	if err != nil {
		return nil, err
	}
	defer q.Release()
	pre := Phase{Name: "fetch_standardized", MS: msSince(began)}
	sp = fam.Child("index_search")
	vexp := e.explainDetail(req)
	res, st, truncated, err := e.searchIndexLimited(ctx, q, req.K+1, g, vexp)
	sp.Finish()
	annotateSearch(sp, st)
	e.met.recordSearch(st)
	if err != nil {
		return nil, err
	}
	out := make([]vptree.Result, 0, req.K)
	for _, r := range res {
		if r.ID != req.ID {
			out = append(out, r)
		}
		if len(out) == req.K {
			break
		}
	}
	e.met.similarResults.Add(int64(len(out)))
	resp := &Response{
		Kind: req.Kind, Neighbors: e.toNeighborsLocked(out),
		Stats: st, Truncated: truncated,
	}
	if req.Explain {
		resp.Explain = indexReport(pre, vexp, st)
	}
	return resp, nil
}

func (e *Engine) queryLinear(ctx context.Context, g *lifecycle.Gate, req Request) (*Response, error) {
	defer e.met.linearLat.Start()()
	e.met.linearTotal.Inc()
	fam := obs.SpanFromContext(ctx)
	z, err := e.queryValues(req)
	if err != nil {
		return nil, err
	}
	e.mu.RLock()
	defer e.mu.RUnlock()
	sp := fam.Child("linear_scan")
	best, err := e.linearScanStandardized(z, req.K, g)
	sp.Finish()
	if err != nil {
		return nil, err
	}
	truncated := g.Truncated()
	return &Response{Kind: req.Kind, Neighbors: best, Truncated: truncated}, nil
}

// scanQuery resolves the query curve of a scan-shaped search (DTW, period
// search): the request's values, or stored sequence req.ID read as one
// counted read — in place when the store has row views. Caller holds the
// read lock.
func (e *Engine) scanQuery(rows seqstore.Reader, req Request) ([]float64, error) {
	if req.Values != nil {
		// Values-mode: search for the given curve, excluding sequence
		// req.ID (negative = none). See the Request doc.
		return e.queryValues(req)
	}
	return rows.Row(req.ID, rows.NewBuffer())
}

func (e *Engine) queryDTW(ctx context.Context, g *lifecycle.Gate, req Request) (*Response, error) {
	defer e.met.dtwLat.Start()()
	e.met.dtwTotal.Inc()
	fam := obs.SpanFromContext(ctx)
	fam.Annotate("id", strconv.Itoa(req.ID))
	fam.Annotate("band", strconv.Itoa(req.Band))

	e.mu.RLock()
	defer e.mu.RUnlock()
	// The collection build is a full pass of store reads; a context-aware
	// store view makes it abort promptly on cancellation. Budget accounting
	// happens inside the gated DTW cascade, whose LB phase touches the same
	// n candidates.
	rows := seqstore.NewReader(seqstore.WithContext(ctx, e.store))
	z, err := e.scanQuery(rows, req)
	if err != nil {
		return nil, err
	}
	// The collection is views of the stored rows, not copies: the cascade
	// only reads them and the read lock outlives it. A store without row
	// views (Disk) fills one fresh buffer per row instead.
	n := e.store.Len()
	scratch := dtw.Get()
	defer scratch.Release()
	collection := scratch.Collection(n)
	for other := 0; other < n; other++ {
		if other == req.ID {
			continue
		}
		v, err := rows.Row(other, rows.NewBuffer())
		if err != nil {
			return nil, err
		}
		collection = append(collection, v)
	}
	if len(collection) == 0 {
		// Nothing to compare against (single-series engine, or a shard
		// whose only series is the excluded one): an empty answer, not an
		// error — a scatter-gather layer must be able to fan an exclusion
		// to every shard.
		return &Response{Kind: req.Kind}, nil
	}
	sp := fam.Child("dtw_cascade")
	res, st, truncated, err := scratch.SearchKLimited(collection, z, req.Band, req.K, g)
	sp.Finish()
	annotateDTW(sp, st)
	e.met.recordDTW(st)
	if err != nil {
		return nil, err
	}
	out := make([]Neighbor, len(res))
	for i, r := range res {
		// Collection index → sequence ID: the excluded ID, if it is one of
		// the store's, is the only gap.
		id := r.Index
		if req.ID >= 0 && id >= req.ID {
			id++
		}
		out[i] = Neighbor{ID: id, Name: e.nameLocked(id), Dist: r.Dist}
	}
	return &Response{Kind: req.Kind, Neighbors: out, Truncated: truncated}, nil
}

// ErrBadPeriods is wrapped by the error a period search returns for a period
// that is not a positive, finite number of days, a tolerance that is negative
// or not finite, or periods no spectral bin lies near. An infinite period or
// tolerance would otherwise select every bin and answer a full-spectrum kNN.
var ErrBadPeriods = errors.New("core: invalid period search")

func (e *Engine) querySimilarPeriods(ctx context.Context, g *lifecycle.Gate, req Request) (*Response, error) {
	for _, p := range req.Periods {
		if !(p > 0) || math.IsInf(p, 1) {
			return nil, fmt.Errorf("core: period %v is not a positive finite number of days: %w", p, ErrBadPeriods)
		}
	}
	if !(req.RelTol >= 0) || math.IsInf(req.RelTol, 1) {
		return nil, fmt.Errorf("core: relative tolerance %v is not a finite number >= 0: %w", req.RelTol, ErrBadPeriods)
	}
	relTol := req.RelTol
	if relTol == 0 {
		relTol = 0.05
	}
	fam := obs.SpanFromContext(ctx)
	fam.Annotate("id", strconv.Itoa(req.ID))

	e.mu.RLock()
	defer e.mu.RUnlock()
	rows := seqstore.NewReader(seqstore.WithContext(ctx, e.store))
	z, err := e.scanQuery(rows, req)
	if err != nil {
		return nil, err
	}
	hq, err := spectral.FromValues(z)
	if err != nil {
		return nil, err
	}
	bins := hq.BinsForPeriods(req.Periods, relTol)
	if len(bins) == 0 {
		return nil, fmt.Errorf("core: no spectral bins within ±%.0f%% of periods %v: %w", 100*relTol, req.Periods, ErrBadPeriods)
	}
	mask, err := hq.Mask(bins)
	if err != nil {
		return nil, err
	}
	best := make([]Neighbor, 0, req.K+1)
	// One spectrum, and for stores without row views one read buffer, serve
	// the whole scan.
	var ho spectral.HalfSpectrum
	buf := rows.NewBuffer()
	for other := 0; other < e.store.Len(); other++ {
		if other == req.ID {
			continue
		}
		if ok, gerr := g.Visit(); gerr != nil {
			return nil, gerr
		} else if !ok {
			break // budget exhausted: keep the best-so-far prefix
		}
		if !g.Leaf() {
			break // ng leaf budget exhausted: best-so-far, flagged approximate
		}
		row, err := rows.Row(other, buf)
		if err != nil {
			return nil, err
		}
		if err := spectral.FromValuesInto(&ho, row); err != nil {
			return nil, err
		}
		d, err := mask.Distance(hq, &ho)
		if err != nil {
			return nil, err
		}
		best = insertNeighbor(best, Neighbor{ID: other, Name: e.nameLocked(other), Dist: d}, req.K)
	}
	truncated := g.Truncated()
	return &Response{Kind: req.Kind, Neighbors: best, Truncated: truncated}, nil
}

func (e *Engine) queryBurst(ctx context.Context, g *lifecycle.Gate, req Request) (*Response, error) {
	// The pattern to match and the sequence to leave out: a pre-detected
	// pattern as given, excluding req.ID (negative = none; see the Request
	// doc); bursts detected in req.Values, excluding nothing; or the stored
	// bursts of series req.ID, excluding itself.
	q, exclude := req.QueryBursts, int64(req.ID)
	var phases []Phase
	if q == nil && req.Kind == KindBurst {
		began := time.Now()
		det, err := e.Bursts(req.Values, req.Window) // stateless, pre-lock
		if err != nil {
			return nil, err
		}
		q, exclude = filterBursts(det), -1
		phases = append(phases, Phase{Name: "burst_detect", MS: msSince(began)})
	}
	e.mu.RLock()
	defer e.mu.RUnlock()
	if req.QueryBursts == nil && req.Kind == KindBurstID {
		if req.ID < 0 || req.ID >= len(e.names) {
			return nil, fmt.Errorf("core: no sequence %d: %w", req.ID, seqstore.ErrNotFound)
		}
		q = e.burstsOfLocked(req.ID, req.Window)
	}
	began := time.Now()
	matches, bexp, truncated, err := e.queryBursts(ctx, q, req.K, exclude, req.Window, g, req.Explain)
	if err != nil {
		return nil, err
	}
	resp := &Response{Kind: req.Kind, Matches: matches, Truncated: truncated}
	if req.Explain {
		resp.Explain = &ExplainReport{
			Phases: append(phases, Phase{Name: "overlap_scan", MS: msSince(began)}),
			Burst:  bexp,
		}
	}
	return resp, nil
}
