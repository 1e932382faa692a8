package core

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"testing"

	"repro/internal/israce"
	"repro/internal/obs"
	"repro/internal/querylog"
	"repro/internal/series"
)

// similarQueryAllocCeiling is the recorded allocation ceiling of one
// Engine.Query(KindSimilar) without observability: 15 were measured once
// the search scratch was pooled, 12 once the minted request ID and its
// context value went, and 5 once the prepared query was pooled too (what
// remains is the standardized copy, the neighbours and the response); the
// commit before the scratch pooling allocated 48. Raise it only with a
// reason.
const similarQueryAllocCeiling = 8

func TestSimilarQueryAllocCeiling(t *testing.T) {
	if israce.Enabled {
		t.Skip("sync.Pool drops Puts at random under the race detector")
	}
	e, g := buildEngine(t, 200, Config{Budget: 16}, 3)
	q := g.Queries(1)[0].Values
	req := Request{Kind: KindSimilar, Values: q, K: 10}
	ctx := context.Background()
	query := func() {
		resp, err := e.Query(ctx, req)
		if err != nil || len(resp.Neighbors) != 10 {
			t.Fatalf("query: %v", err)
		}
	}
	query() // size the pooled scratch
	if allocs := testing.AllocsPerRun(50, query); allocs > similarQueryAllocCeiling {
		t.Fatalf("Engine.Query(KindSimilar) allocates %.0f objects, ceiling %d", allocs, similarQueryAllocCeiling)
	}
}

// similarQueryByteCeiling is the recorded byte ceiling of one Engine.Query
// of an index-search kind (KindSimilar, KindSimilarID) at 1 024 points,
// without observability. The query's preparation — spectrum, bound context,
// sketch codes — is pooled (spectral.Prepare / Release), so what remains is
// the neighbours, the response and, by values, the 8 KB standardized copy:
// 8 960 B by values and 944 B by ID were measured with the pool, 71 984 B
// and 63 968 B before it. Raise it only with a reason.
const similarQueryByteCeiling = 16 << 10

// minBytesPerRun is the fewest bytes one call of op allocated over three
// measurements of ten calls each, on one P: a collection that empties a pool
// mid-measurement, or another goroutine allocating, can only add bytes.
func minBytesPerRun(op func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const calls = 10
	best := uint64(math.MaxUint64)
	for range 3 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range calls {
			op()
		}
		runtime.ReadMemStats(&after)
		best = min(best, (after.TotalAlloc-before.TotalAlloc)/calls)
	}
	return best
}

func TestSimilarQueryByteCeiling(t *testing.T) {
	if israce.Enabled {
		t.Skip("sync.Pool drops Puts at random under the race detector")
	}
	g := querylog.NewGenerator(querylog.DefaultStart, 1024, 3)
	e, err := NewEngine(g.Dataset(200), Config{Budget: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	ctx := context.Background()
	for _, req := range []Request{
		{Kind: KindSimilar, Values: g.Queries(1)[0].Values, K: 10},
		{Kind: KindSimilarID, ID: 7, K: 10},
	} {
		query := func() {
			resp, err := e.Query(ctx, req)
			if err != nil || len(resp.Neighbors) != 10 {
				t.Fatalf("%s: %v", req.Kind, err)
			}
		}
		query() // size the pooled scratch and prepared query
		if b := minBytesPerRun(query); b > similarQueryByteCeiling {
			t.Errorf("Engine.Query(%s) at 1 024 points allocates %d B, ceiling %d", req.Kind, b, similarQueryByteCeiling)
		} else {
			t.Logf("Engine.Query(%s) at 1 024 points allocates %d B", req.Kind, b)
		}
	}
}

// Pool poisoning at engine level: an engine that has just answered a
// many-candidate query, right after another engine released a 1 024-point
// prepared query, answers a few-candidate one exactly — neighbours and
// Stats — as a new engine starting from new buffers does, by values and by
// ID, at an even and at an odd length.
func TestEngineAnswersIndependentOfEarlierQueries(t *testing.T) {
	build := func(data []*series.Series) *Engine {
		e, err := NewEngine(data, Config{Budget: 8})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { e.Close() })
		return e
	}
	long := querylog.NewGenerator(querylog.DefaultStart, 1024, 37)
	big := build(long.Dataset(60))
	bigReq := Request{Kind: KindSimilar, Values: long.Queries(1)[0].Values, K: 5}
	for _, days := range []int{128, 129} {
		g := querylog.NewGenerator(querylog.DefaultStart, days, 31)
		data := g.Dataset(150)
		wide := Request{Kind: KindSimilar, Values: g.Queries(1)[0].Values, K: len(data)}
		narrow := []Request{
			{Kind: KindSimilar, Values: data[7].Values, K: 1},
			{Kind: KindSimilarID, ID: 7, K: 1},
		}
		used, fresh := build(data), build(data)

		// Two collections empty every sync.Pool, victim cache included.
		runtime.GC()
		runtime.GC()
		want := make([]*Response, len(narrow))
		for i, req := range narrow {
			var err error
			if want[i], err = fresh.Query(context.Background(), req); err != nil {
				t.Fatal(err)
			}
		}
		for i, req := range narrow {
			big1, err := used.Query(context.Background(), wide)
			if err != nil {
				t.Fatal(err)
			}
			if len(big1.Neighbors) != len(data) || big1.Stats.FullRetrievals <= 4*want[i].Stats.FullRetrievals {
				t.Fatalf("poisoning query too small: %+v vs %+v", big1.Stats, want[i].Stats)
			}
			if _, err := big.Query(context.Background(), bigReq); err != nil {
				t.Fatal(err)
			}
			got, err := used.Query(context.Background(), req)
			if err != nil {
				t.Fatal(err)
			}
			what := fmt.Sprintf("%d points, %s after a large query", days, req.Kind)
			sameNeighbors(t, what, got.Neighbors, want[i].Neighbors)
			if got.Stats != want[i].Stats {
				t.Fatalf("%s: stats %+v, new engine %+v", what, got.Stats, want[i].Stats)
			}
		}
	}
}

// Each index-search request transforms its query exactly once, by values
// and by ID, and a request of any other kind transforms none.
func TestQueryPreparesOncePerRequest(t *testing.T) {
	hub := obs.NewHub()
	e, g := buildEngine(t, 60, Config{Budget: 8, Obs: hub}, 5)
	prepares := hub.Registry().Counter("engine_query_prepares_total", "")
	ctx := context.Background()
	q := g.Queries(1)[0].Values

	if _, err := e.Query(ctx, Request{Kind: KindSimilar, Values: q, K: 5}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Query(ctx, Request{Kind: KindSimilarID, ID: 3, K: 5}); err != nil {
		t.Fatal(err)
	}
	if got := prepares.Value(); got != 2 {
		t.Fatalf("engine_query_prepares_total = %d after two requests, want 2", got)
	}

	for _, req := range []Request{
		{Kind: KindLinear, Values: q, K: 5},
		{Kind: KindLinear, ID: 3, K: 5},
		{Kind: KindDTW, ID: 3, K: 5, Band: 3},
		{Kind: KindSimilarPeriods, ID: 3, K: 5, Periods: []float64{7}},
		{Kind: KindBurstID, ID: 3, K: 5},
	} {
		if _, err := e.Query(ctx, req); err != nil {
			t.Fatalf("%v: %v", req.Kind, err)
		}
	}
	if got := prepares.Value(); got != 2 {
		t.Fatalf("engine_query_prepares_total = %d after the scans, want still 2", got)
	}
}

// The by-ID search reads its query series in place when the store keeps
// rows in memory, and still as one counted read; a disk store copies.
func TestStandardizedViewIsInPlaceOverMemory(t *testing.T) {
	hub := obs.NewHub()
	mem, _ := buildEngine(t, 10, Config{Obs: hub}, 8)
	reads := hub.Registry().Counter("seqstore_reads_total", "")
	before := reads.Value()
	a, err := mem.StandardizedView(2)
	if err != nil {
		t.Fatal(err)
	}
	b, err := mem.StandardizedView(2)
	if err != nil {
		t.Fatal(err)
	}
	if &a[0] != &b[0] {
		t.Error("memory store: StandardizedView must return the stored row itself")
	}
	if got := reads.Value() - before; got != 2 {
		t.Errorf("two views counted %d reads, want 2", got)
	}
	if _, err := mem.StandardizedView(1 << 20); err == nil {
		t.Error("out-of-range id must fail")
	}

	disk := reopen(t, mem, Config{})
	c, err := disk.StandardizedView(2)
	if err != nil {
		t.Fatal(err)
	}
	d, err := disk.StandardizedView(2)
	if err != nil {
		t.Fatal(err)
	}
	if &c[0] == &d[0] {
		t.Error("disk store: StandardizedView must return a copy")
	}
	for i := range a {
		if a[i] != c[i] {
			t.Fatalf("memory and disk views differ at %d", i)
		}
	}
}
