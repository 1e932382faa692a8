package core

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/querylog"
)

// allKinds builds one valid request per search family against e.
func allKinds(t *testing.T, e *Engine) map[Kind]Request {
	t.Helper()
	id, ok := e.Lookup(querylog.Cinema)
	if !ok {
		t.Fatal("cinema not indexed")
	}
	s, err := e.Series(id)
	if err != nil {
		t.Fatal(err)
	}
	return map[Kind]Request{
		KindSimilar:        {Kind: KindSimilar, Values: s.Values, K: 3},
		KindSimilarID:      {Kind: KindSimilarID, ID: id, K: 3},
		KindLinear:         {Kind: KindLinear, Values: s.Values, K: 3},
		KindDTW:            {Kind: KindDTW, ID: id, Band: 7, K: 3},
		KindSimilarPeriods: {Kind: KindSimilarPeriods, ID: id, Periods: []float64{7}, K: 3},
		KindBurst:          {Kind: KindBurst, Values: s.Values, K: 3, Window: Long},
		KindBurstID:        {Kind: KindBurstID, ID: id, K: 3, Window: Long},
	}
}

func TestQueryValidation(t *testing.T) {
	e, _ := buildEngine(t, 20, Config{}, 1)
	if _, err := e.Query(context.Background(), Request{Kind: KindUnknown, K: 1}); err == nil {
		t.Error("KindUnknown must be rejected")
	}
	if _, err := e.Query(context.Background(), Request{Kind: Kind(99), K: 1}); err == nil {
		t.Error("out-of-range kind must be rejected")
	}
	if _, err := e.Query(context.Background(), Request{Kind: KindSimilarID, K: 0}); !errors.Is(err, errBadK) {
		t.Errorf("k=0 err = %v, want errBadK", err)
	}
	if _, err := e.Query(nil, allKinds(t, e)[KindSimilarID]); err != nil { //nolint:staticcheck // nil ctx tolerated by design
		t.Errorf("nil ctx must behave as Background: %v", err)
	}
}

// TestCancelledContextAbortsEveryFamily is the O(1)-abort acceptance
// criterion: an already-expired context returns promptly from every search
// family with zero index work, visible as an unchanged node-visit counter
// and a bumped abort counter.
func TestCancelledContextAbortsEveryFamily(t *testing.T) {
	hub := obs.NewHub()
	e, _ := buildEngine(t, 30, Config{Obs: hub}, 1)
	reqs := allKinds(t, e)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	aborted := counterValue(t, hub.Registry(), "engine_query_aborted_total")
	for kind, req := range reqs {
		bounds := counterValue(t, hub.Registry(), "vptree_bounds_computed_total")
		rows := counterValue(t, hub.Registry(), "burstdb_rows_scanned_total")
		resp, err := e.Query(ctx, req)
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%v: err = %v, want context.Canceled", kind, err)
		}
		if resp != nil {
			t.Errorf("%v: got a response alongside the abort", kind)
		}
		if got := counterValue(t, hub.Registry(), "vptree_bounds_computed_total"); got != bounds {
			t.Errorf("%v: index bounds computed after abort (%d -> %d)", kind, bounds, got)
		}
		if got := counterValue(t, hub.Registry(), "burstdb_rows_scanned_total"); got != rows {
			t.Errorf("%v: burst rows scanned after abort (%d -> %d)", kind, rows, got)
		}
	}
	if got := counterValue(t, hub.Registry(), "engine_query_aborted_total"); got != aborted+int64(len(reqs)) {
		t.Errorf("aborted counter = %d, want %d", got, aborted+int64(len(reqs)))
	}
}

func TestExpiredDeadlineContextAborts(t *testing.T) {
	e, _ := buildEngine(t, 20, Config{}, 1)
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	for kind, req := range allKinds(t, e) {
		if _, err := e.Query(ctx, req); !errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("%v: err = %v, want context.DeadlineExceeded", kind, err)
		}
	}
}

// flipCtx is a context whose Err flips to Canceled after a fixed number of
// checks. It makes mid-search cancellation deterministic: the query passes
// the entry check, starts real work, and hits the cancellation at a later
// amortized gate check.
type flipCtx struct {
	context.Context
	calls atomic.Int64
	after int64
}

func (c *flipCtx) Err() error {
	if c.calls.Add(1) > c.after {
		return context.Canceled
	}
	return nil
}

// Done returns a non-nil (never-closed) channel so gates engage.
func (c *flipCtx) Done() <-chan struct{} { return make(chan struct{}) }

func TestMidSearchCancellationAborts(t *testing.T) {
	e, _ := buildEngine(t, 60, Config{Workers: 1}, 2)
	for kind, req := range allKinds(t, e) {
		ctx := &flipCtx{Context: context.Background(), after: 2}
		resp, err := e.Query(ctx, req)
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%v: err = %v, want context.Canceled", kind, err)
		}
		if resp != nil {
			t.Errorf("%v: got a response alongside the abort", kind)
		}
		if ctx.calls.Load() <= ctx.after {
			t.Errorf("%v: context was never re-checked after entry", kind)
		}
	}
}

// TestBudgetDeadlineTruncatesNotErrors is the graceful-degradation
// acceptance criterion: a budget that expires mid-search yields the
// best-so-far answer flagged Truncated, not an error.
func TestBudgetDeadlineTruncatesNotErrors(t *testing.T) {
	hub := obs.NewHub()
	e, _ := buildEngine(t, 40, Config{Obs: hub, Workers: 1}, 3)
	truncBefore := counterValue(t, hub.Registry(), "engine_query_truncated_total")
	n := 0
	for kind, req := range allKinds(t, e) {
		req.Budget = Budget{Deadline: -time.Second} // expired on arrival
		resp, err := e.Query(context.Background(), req)
		if err != nil {
			t.Errorf("%v: budget expiry must not error: %v", kind, err)
			continue
		}
		if !resp.Truncated {
			t.Errorf("%v: expired budget did not set Truncated", kind)
		}
		n++
	}
	if got := counterValue(t, hub.Registry(), "engine_query_truncated_total"); got != truncBefore+int64(n) {
		t.Errorf("truncated counter = %d, want %d", got, truncBefore+int64(n))
	}
}

// TestTruncatedLinearScanIsPrefix pins the linear family's degradation
// contract: with MaxNodeVisits=m on a serial scan, the answer is exactly
// the full answer restricted to the first m rows — a prefix-quality subset.
func TestTruncatedLinearScanIsPrefix(t *testing.T) {
	e, g := buildEngine(t, 40, Config{Workers: 1}, 4)
	q := g.Queries(1)[0]
	const k, m = 5, 17

	full, err := linearScan(e, q.Values, e.Len())
	if err != nil {
		t.Fatal(err)
	}
	want := make([]Neighbor, 0, k)
	for _, n := range full {
		if n.ID < m {
			want = append(want, n)
		}
		if len(want) == k {
			break
		}
	}

	resp, err := e.Query(context.Background(), Request{
		Kind: KindLinear, Values: q.Values, K: k,
		Budget: Budget{MaxNodeVisits: m},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Truncated {
		t.Fatal("scan over 40+ rows with MaxNodeVisits=17 must truncate")
	}
	if len(resp.Neighbors) != len(want) {
		t.Fatalf("got %d neighbours, want %d", len(resp.Neighbors), len(want))
	}
	for i := range want {
		if resp.Neighbors[i] != want[i] {
			t.Errorf("rank %d: got %v, want %v", i, resp.Neighbors[i], want[i])
		}
	}
}

// TestTruncatedIndexSearchReturnsRefinedSubset: under a node budget the
// index search still refines and returns genuinely verified neighbours (the
// gate's bounded grace), every one of which appears in the exact answer's
// distance order.
func TestTruncatedIndexSearchReturnsRefinedSubset(t *testing.T) {
	e, g := buildEngine(t, 60, Config{Workers: 1}, 5)
	q := g.Queries(1)[0]
	const k = 3

	exact, err := linearScan(e, q.Values, e.Len())
	if err != nil {
		t.Fatal(err)
	}
	dist := make(map[int]float64, len(exact))
	for _, n := range exact {
		dist[n.ID] = n.Dist
	}

	resp, err := e.Query(context.Background(), Request{
		Kind: KindSimilar, Values: q.Values, K: k,
		Budget: Budget{MaxNodeVisits: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Truncated {
		t.Fatal("4-node budget over a 60+-series tree must truncate")
	}
	if len(resp.Neighbors) == 0 {
		t.Fatal("truncated search returned nothing despite refinement grace")
	}
	for i, n := range resp.Neighbors {
		d, ok := dist[n.ID]
		if !ok {
			t.Fatalf("neighbour %d not in the database scan", n.ID)
		}
		if diff := n.Dist - d; diff > 1e-9 || diff < -1e-9 {
			t.Errorf("neighbour %d dist %v, exact %v — refinement must be exact", n.ID, n.Dist, d)
		}
		if i > 0 && resp.Neighbors[i-1].Dist > n.Dist {
			t.Error("truncated neighbours must stay sorted by distance")
		}
	}
}

// TestWrappersMatchQuery pins the deprecated wrappers to the unified entry
// point: same inputs, same answers.
func TestWrappersMatchQuery(t *testing.T) {
	e, g := buildEngine(t, 30, Config{}, 6)
	id, _ := e.Lookup(querylog.Cinema)
	q := g.Queries(1)[0]

	wrap, _, err := similarToID(e, id, 4)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := e.Query(context.Background(), Request{Kind: KindSimilarID, ID: id, K: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(wrap) != len(resp.Neighbors) {
		t.Fatalf("SimilarToID %d results vs Query %d", len(wrap), len(resp.Neighbors))
	}
	for i := range wrap {
		if wrap[i] != resp.Neighbors[i] {
			t.Errorf("rank %d: wrapper %v vs Query %v", i, wrap[i], resp.Neighbors[i])
		}
	}

	lin, err := linearScan(e, q.Values, 4)
	if err != nil {
		t.Fatal(err)
	}
	lresp, err := e.Query(context.Background(), Request{Kind: KindLinear, Values: q.Values, K: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := range lin {
		if lin[i] != lresp.Neighbors[i] {
			t.Errorf("rank %d: LinearScan %v vs Query %v", i, lin[i], lresp.Neighbors[i])
		}
	}
}

// Kind.String gives the stable names the wide events and traces carry.
func TestKindStringRoundTrip(t *testing.T) {
	want := map[Kind]string{
		KindSimilar: "similar", KindSimilarID: "similar_id", KindLinear: "linear", KindDTW: "dtw",
		KindSimilarPeriods: "periods", KindBurst: "qbb", KindBurstID: "qbb_id", KindUnknown: "Kind(0)",
	}
	for k, name := range want {
		if got := k.String(); got != name {
			t.Errorf("Kind(%d).String() = %q, want %q", int(k), got, name)
		}
	}
}
