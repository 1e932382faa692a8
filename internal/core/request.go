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
	"repro/internal/knn"
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
	// (§7.4) over Request.Values, or of indexed series Request.ID excluding
	// the series itself.
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
	// MaxNodeVisits caps scan units: rows scanned (by the similarity search's
	// bound scan too), bursts probed, candidates bounded (0 = unlimited).
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
//	Kind                 input              extras
//	KindSimilar          Values, K          Budget
//	KindSimilarID        ID, K              Budget
//	KindLinear           Values or ID, K    Budget
//	KindDTW              ID or Values, K    Band, Budget
//	KindSimilarPeriods   ID or Values, K    Periods, RelTol, Budget
//	KindBurst            Values, K          Window, Budget
//	KindBurstID          ID, K              Window, Budget
//
// A by-ID search never returns the query's own sequence. KindLinear, KindDTW
// and KindSimilarPeriods search for stored sequence ID when Values is nil,
// and for the curve Values otherwise. In that values-mode KindDTW and
// KindSimilarPeriods leave sequence ID out of the results (negative =
// exclude nothing), so callers building such requests must set ID explicitly
// (the zero value would silently exclude sequence 0); KindLinear ignores ID
// when it has Values.
type Request struct {
	// Kind selects the search family.
	Kind Kind
	// Values is the raw query curve for the by-values kinds.
	Values []float64
	// Standardized, when set, declares Values already z-scored: the engine
	// uses them verbatim instead of standardizing again (re-standardizing an
	// already standardized curve is not bit-stable in floating point).
	Standardized bool
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
	// Stats reports the work of a similarity search: the scan's bounds, the
	// filter and the refine (NodesVisited and GuidedDescentHits stay 0: no
	// tree is walked).
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
func (e *Engine) search(ctx context.Context, g *lifecycle.Gate, req Request, q *Resolved) (*Response, []int64, error) {
	resp, err := e.dispatch(ctx, g, req, q)
	return resp, nil, err
}

// locate is the single engine's Locator: every sequence is its own.
func (e *Engine) locate(id int) (*Engine, int, bool) {
	return e, id, id >= 0 && id < e.Len()
}

// QueryGated runs one shard's part of a request whose Envelope the caller
// runs: req and q are what the Envelope handed the caller's QueryBody, and
// all work is accounted against g, a Split child of the request's gate (nil
// = unlimited), which the caller Absorbs back. It opens the family span
// under the caller's span on ctx, counts the family metrics and, with
// Request.Explain, returns the shard's own report; the wide event, outcome
// and abort/truncation counts are the caller's one request's.
func (e *Engine) QueryGated(ctx context.Context, req Request, q *Resolved, g *lifecycle.Gate) (*Response, error) {
	req.K = min(req.K, e.Len())
	if g == nil {
		g = lifecycle.NewGate(ctx, lifecycle.Limits{})
	}
	start := time.Now()
	sp := obs.SpanFromContext(ctx).Child(traceName(req.Kind))
	defer sp.Finish()
	sp.Annotate("k", strconv.Itoa(req.K))
	resp, err := e.dispatch(obs.ContextWithSpan(ctx, sp), g, req, q)
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
// span on ctx, for the query the Envelope resolved. A scatter-gather body
// also returns how many results each live shard gave (the wide event's
// worker_spread); a single engine, nil.
type QueryBody func(ctx context.Context, g *lifecycle.Gate, req Request, q *Resolved) (resp *Response, spread []int64, err error)

// Locator maps a sequence ID onto the engine that stores it and the
// sequence's ID there; ok is false for an ID the served engine does not
// hold.
type Locator func(id int) (e *Engine, local int, ok bool)

// Resolved is a request turned into the query its body searches, once per
// request, before any search runs; every shard of a sharded engine searches
// the same one. Its fields are the Envelope's: a body only hands it on to
// Engine.QueryGated.
type Resolved struct {
	// z is the standardized query curve: Values z-scored (or as given when
	// Standardized), or the stored row of the request's ID, read in place.
	// nil for the burst kinds.
	z []float64
	// prepared is z's spectrum and bound context for the index search (nil
	// for the other kinds). It is only ever read, by every shard at once;
	// the Envelope releases it once the body has returned.
	prepared *spectral.Prepared
	// bursts is the burst kinds' pattern: detected in Values, or the stored
	// bursts of the request's ID (nil on a single engine, whose body reads
	// them under the read lock it takes for its scan).
	bursts []burst.Burst
	// pre is how the query was obtained, the first phase of an explained
	// index search ("standardize", "fetch_standardized") or query-by-burst
	// ("burst_detect"; empty for stored bursts).
	pre Phase
	// byID reports that the query is stored sequence id.
	byID bool
	// id is the sequence left out of the answer (-1 = none). With dropAfter
	// the body searches one more result and the Envelope drops id from the
	// answer; otherwise a scan skips row local on owner, the engine storing
	// id (nil = none).
	id        int
	dropAfter bool
	owner     *Engine
	local     int
}

// Indexed reports whether q is an index search: a scatter over engines
// seeds its later shards from the first ones' answers.
func (q *Resolved) Indexed() bool { return q.prepared != nil }

// skip is the row a scan on e leaves out: the excluded sequence's ID on the
// engine that stores it, -1 elsewhere.
func (q *Resolved) skip(e *Engine) int {
	if q.owner != e {
		return -1
	}
	return q.local
}

// Envelope is the one request lifecycle every Query runs in, on a single
// engine and on a sharded one alike: validation and the k clamp, resolving
// the query (Resolved), the trace (joined or started; its ID names the
// request) and its lifecycle annotations, the request's one wide event, its
// outcome and the abort and truncation counters, the approximation stamp,
// and the explain header and attach. What differs between engines is only
// the QueryBody.
type Envelope struct {
	served    Searcher
	locate    Locator
	sharded   bool // names the request "sharded_<kind>"
	tracer    *obs.Tracer
	reqlog    *obs.RequestLog
	aborted   *obs.Counter
	truncated *obs.Counter
	prepares  *obs.Counter
}

// NewEnvelope builds the lifecycle of the engine served, whose sequences
// locate finds, recording into hub (nil disables every record). sharded
// names the requests of a scatter-gather engine "sharded_<kind>" in the
// trace, the wide event and the explain report.
func NewEnvelope(hub *obs.Hub, served Searcher, locate Locator, sharded bool) *Envelope {
	reg := hub.Registry()
	return &Envelope{
		served:    served,
		locate:    locate,
		sharded:   sharded,
		tracer:    hub.Tracer(),
		reqlog:    hub.RequestLog(),
		aborted:   reg.Counter("engine_query_aborted_total", "queries aborted by context cancellation or deadline expiry"),
		truncated: reg.Counter("engine_query_truncated_total", "queries returning budget-truncated partial results"),
		prepares:  reg.Counter("engine_query_prepares_total", "query spectra and bound contexts computed (one per index-search request, however many shards serve it)"),
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
	var q *Resolved
	g := lifecycle.NewGate(ctx, req.Approx.limits(req.Budget.limits(start)))
	// An already-dead context does zero index work: O(1) return from every
	// search family.
	err := ctx.Err()
	if err == nil {
		var breq Request
		if q, breq, err = v.resolve(ctx, req); err == nil {
			resp, ev.WorkerSpread, err = body(ctx, g, breq, q)
			ev.Workers = len(ev.WorkerSpread)
			if q.prepared != nil {
				// Every shard has returned, so nothing reads it any more.
				q.prepared.Release()
			}
		}
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
	resp.Kind = req.Kind
	if q.dropAfter {
		resp.Neighbors = dropSequence(resp.Neighbors, q.id, req.K)
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
	ev.BoundsComputed = resp.Stats.BoundsComputed
	ev.Candidates = resp.Stats.Candidates
	ev.FullRetrievals = resp.Stats.FullRetrievals
	ev.LBPrunes = resp.Stats.LBPrunes
	ev.Results = len(resp.Neighbors) + len(resp.Matches)
	v.reqlog.Record(ev)
	if req.Explain {
		resp.Explain = resp.Explain.Finish(name, req.K, resp, start)
		if q.byID {
			resp.Explain.Query = v.served.Name(req.ID)
		}
		tr.Attach(resp.Explain)
	}
	return resp, nil
}

// resolve turns a validated request into the query every engine it reaches
// searches, and the request its body runs: a by-ID similarity search is the
// one similarity search of the stored curve, and a search whose answer must
// leave out the query's own sequence asks for one result more, which Run
// drops. The curve is timed on the family span ("standardize" or
// "fetch_standardized"), and an index search's query is prepared here, once.
func (v *Envelope) resolve(ctx context.Context, req Request) (*Resolved, Request, error) {
	fam := obs.SpanFromContext(ctx)
	began := time.Now()
	q := &Resolved{id: -1}
	switch req.Kind {
	case KindBurst:
		det, err := detectBursts(req.Values, req.Window)
		if err != nil {
			return nil, req, err
		}
		q.bursts, q.pre = filterBursts(det), Phase{Name: "burst_detect", MS: msSince(began)}
		return q, req, nil
	case KindSimilarID, KindBurstID:
		q.byID = true
	case KindLinear, KindDTW, KindSimilarPeriods:
		q.byID = req.Values == nil
		if !q.byID && req.Kind != KindLinear {
			q.id = req.ID // values-mode: the sequence to leave out
		}
	}
	if q.byID {
		q.id = req.ID
		fam.Annotate("id", strconv.Itoa(req.ID))
	}
	if owner, local, ok := v.locate(q.id); ok {
		q.owner, q.local = owner, local
	}
	switch {
	case q.byID && q.owner == nil:
		return nil, req, NoSequence(req.ID)
	case req.Kind == KindBurstID:
		// Every shard of a sharded engine needs the owner's stored bursts,
		// read here once (a sharded engine takes no Add to queue behind); a
		// single engine's body reads its own under the lock it already holds.
		if v.sharded {
			q.bursts = q.owner.BurstsOf(q.local, req.Window)
		}
		return q, req, nil
	case q.byID:
		// Without the engine's read lock: the store guards its rows itself,
		// a row never changes once stored, and locate finds only sequences
		// an Add has committed. The body then takes the lock once.
		sp := fam.Child("fetch_standardized")
		z, err := q.owner.StandardizedView(q.local)
		sp.Finish()
		if err != nil {
			return nil, req, err
		}
		q.z, q.pre.Name = z, "fetch_standardized"
		q.dropAfter = req.Kind == KindSimilarID || req.Kind == KindLinear
	default:
		sp := fam.Child("standardize")
		z, err := standardizeQuery(req.Values, v.served.SeqLen(), req.Standardized)
		sp.Finish()
		if err != nil {
			return nil, req, err
		}
		q.z, q.pre.Name = z, "standardize"
	}
	if req.Kind == KindSimilar || req.Kind == KindSimilarID {
		v.prepares.Inc()
		p, err := spectral.Prepare(q.z)
		if err != nil {
			return nil, req, err
		}
		q.prepared, req.Kind = p, KindSimilar
	}
	q.pre.MS = msSince(began)
	if q.dropAfter {
		req.K++
	}
	return q, req, nil
}

// NoSequence is the error for a sequence ID an engine does not hold; it
// wraps seqstore.ErrNotFound.
func NoSequence(id int) error {
	return fmt.Errorf("core: no sequence %d: %w", id, seqstore.ErrNotFound)
}

// dropSequence leaves sequence id out of an answer that searched one
// neighbour more than the k it returns.
func dropSequence(ns []Neighbor, id, k int) []Neighbor {
	out := ns[:0]
	for _, n := range ns {
		if n.ID != id && len(out) < k {
			out = append(out, n)
		}
	}
	return out
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

func (e *Engine) dispatch(ctx context.Context, g *lifecycle.Gate, req Request, q *Resolved) (*Response, error) {
	switch req.Kind {
	case KindSimilar:
		return e.querySimilar(ctx, g, req, q)
	case KindLinear:
		return e.queryLinear(ctx, g, req, q)
	case KindDTW:
		return e.queryDTW(ctx, g, req, q)
	case KindSimilarPeriods:
		return e.querySimilarPeriods(ctx, g, req, q)
	case KindBurst, KindBurstID:
		return e.queryBurst(ctx, g, req, q)
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

func (e *Engine) querySimilar(ctx context.Context, g *lifecycle.Gate, req Request, q *Resolved) (*Response, error) {
	defer e.met.similarLat.Start()()
	e.met.similarTotal.Inc()
	e.met.similarK.Observe(float64(req.K))
	e.mu.RLock()
	defer e.mu.RUnlock()
	sp := obs.SpanFromContext(ctx).Child("index_search")
	// Refinement reads go through a context-aware store view, so a hung-up
	// caller aborts even between the gate's amortized checks.
	res, ss, err := knn.Scan(q.prepared, req.K, e.arena, seqstore.WithContext(ctx, e.store), g)
	sp.Finish()
	st := vptree.Stats{
		BoundsComputed: ss.BoundsComputed, Candidates: ss.Candidates, FullRetrievals: ss.FullRetrievals,
		LBPrunes: ss.FilterLBPrunes, ExactDistances: ss.ExactDistances, SketchSkips: ss.SketchSkips,
	}
	e.scans.Add(ss)
	annotateSearch(sp, st)
	e.met.recordSearch(st)
	if err != nil {
		return nil, err
	}
	e.met.similarResults.Add(int64(len(res)))
	resp := &Response{
		Kind: req.Kind, Neighbors: e.toNeighborsLocked(res),
		Stats: st, Truncated: g.Truncated(),
	}
	if req.Explain {
		resp.Explain = indexReport(q.pre, e.cfg.Budget, e.arena.Len(), ss, st)
	}
	return resp, nil
}

func (e *Engine) queryLinear(ctx context.Context, g *lifecycle.Gate, req Request, q *Resolved) (*Response, error) {
	defer e.met.linearLat.Start()()
	e.met.linearTotal.Inc()
	e.mu.RLock()
	defer e.mu.RUnlock()
	sp := obs.SpanFromContext(ctx).Child("linear_scan")
	best, err := e.linearScanStandardized(q.z, req.K, g)
	sp.Finish()
	if err != nil {
		return nil, err
	}
	truncated := g.Truncated()
	return &Response{Kind: req.Kind, Neighbors: best, Truncated: truncated}, nil
}

func (e *Engine) queryDTW(ctx context.Context, g *lifecycle.Gate, req Request, q *Resolved) (*Response, error) {
	defer e.met.dtwLat.Start()()
	e.met.dtwTotal.Inc()
	fam := obs.SpanFromContext(ctx)
	fam.Annotate("band", strconv.Itoa(req.Band))
	skip := q.skip(e)

	e.mu.RLock()
	defer e.mu.RUnlock()
	sp := fam.Child("dtw_cascade")
	res, st, err := e.dtwCascade(ctx, g, req, q.z, skip)
	sp.Finish()
	annotateDTW(sp, st)
	e.met.recordDTW(st)
	if err != nil {
		return nil, err
	}
	return &Response{Kind: req.Kind, Neighbors: e.toNeighborsLocked(res), Truncated: g.Truncated()}, nil
}

// dtwCascade is fig. 11 under banded DTW (§8): a gated pass bounds every
// row but skip by LB_Keogh against z, collecting it with no upper bound (so
// σ_UB stays +Inf and only the gate's δ and ε drop candidates before
// refinement); then knn's Filter and refine measure the rows in bound order
// with an early-abandoning DTW. Each bounded row is one Visit and one Leaf;
// a budget that stops the pass still refines up to k. Caller holds the read
// lock, which keeps the row views valid until the refine ends.
func (e *Engine) dtwCascade(ctx context.Context, g *lifecycle.Gate, req Request, z []float64, skip int) ([]knn.Result, dtwStats, error) {
	var st dtwStats
	dt := dtw.Get()
	defer dt.Release()
	if err := dt.Query(z, req.Band); err != nil {
		return nil, st, err
	}
	// Reads go through a context-aware store view, so a hung-up caller
	// aborts between the gate's amortized checks. The refine measures the
	// pass's row views, not copies: over a store without them (Disk) each
	// row is read into a buffer of its own.
	rows := seqstore.NewReader(seqstore.WithContext(ctx, e.store))
	n := e.store.Len()
	views := dt.Rows(n)
	sc := knn.Get(req.K)
	defer sc.Release()
	for id := range n {
		if id == skip {
			continue
		}
		if ok, err := g.Visit(); err != nil {
			return nil, st, err
		} else if !ok || !g.Leaf() {
			break // budget or ng leaf budget exhausted: refine what was bounded
		}
		v, err := rows.Row(id, rows.NewBuffer())
		if err != nil {
			return nil, st, err
		}
		lb, err := dt.LowerBound(v)
		if err != nil {
			return nil, st, err
		}
		st.LB++
		views[id] = v
		sc.Add(id, lb, math.Inf(1))
	}
	if g.Truncated() {
		g.Grace(req.K)
	}
	sc.Filter(g)
	res, rs, err := sc.RefineBy(g, nil, func(id int, bound float64) (float64, bool, error) {
		return dt.Distance(views[id], bound)
	})
	st.Full, st.Abandoned = rs.ExactDistances, rs.EarlyAbandons
	return res, st, err
}

// ErrBadPeriods is wrapped by the error a period search returns for a period
// that is not a positive, finite number of days, a tolerance that is negative
// or not finite, or periods no spectral bin lies near. An infinite period or
// tolerance would otherwise select every bin and answer a full-spectrum kNN.
var ErrBadPeriods = errors.New("core: invalid period search")

func (e *Engine) querySimilarPeriods(ctx context.Context, g *lifecycle.Gate, req Request, q *Resolved) (*Response, error) {
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
	hq, err := spectral.FromValues(q.z)
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
	skip := q.skip(e)

	e.mu.RLock()
	defer e.mu.RUnlock()
	rows := seqstore.NewReader(seqstore.WithContext(ctx, e.store))
	best := make([]Neighbor, 0, req.K+1)
	// One spectrum, and for stores without row views one read buffer, serve
	// the whole scan.
	var ho spectral.HalfSpectrum
	buf := rows.NewBuffer()
	for other := 0; other < e.store.Len(); other++ {
		if other == skip {
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

func (e *Engine) queryBurst(ctx context.Context, g *lifecycle.Gate, req Request, q *Resolved) (*Response, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	began := time.Now()
	pattern := q.bursts
	if pattern == nil && req.Kind == KindBurstID && q.owner == e {
		pattern = e.burstsOfLocked(q.local, req.Window)
	}
	matches, bexp, truncated, err := e.queryBursts(ctx, pattern, req.K, int64(q.skip(e)), req.Window, g, req.Explain)
	if err != nil {
		return nil, err
	}
	resp := &Response{Kind: req.Kind, Matches: matches, Truncated: truncated}
	if req.Explain {
		var phases []Phase
		if q.pre.Name != "" {
			phases = append(phases, q.pre)
		}
		resp.Explain = &ExplainReport{
			Phases: append(phases, Phase{Name: "overlap_scan", MS: msSince(began)}),
			Burst:  bexp,
		}
	}
	return resp, nil
}
