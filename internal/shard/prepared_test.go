package shard

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/querylog"
)

// The scatter transforms the query once, by values and by ID: the resolver
// prepares it before the body runs and every shard searches that one
// prepared query, so the registry all the shards count into sees one prepare
// per request, not one per shard — on a single engine and on one, three or
// eight shards alike. A request of any other kind prepares none.
func TestScatterPreparesTheQueryOnce(t *testing.T) {
	hub := obs.NewHub()
	gen := querylog.NewGenerator(querylog.DefaultStart, 128, 11)
	q := gen.Queries(1)[0].Values
	index := []core.Request{
		{Kind: core.KindSimilar, Values: q, K: 5},
		{Kind: core.KindSimilarID, ID: 17, K: 5},
	}
	scans := []core.Request{
		{Kind: core.KindLinear, ID: 17, K: 5},
		{Kind: core.KindDTW, ID: 17, K: 5, Band: 3},
		{Kind: core.KindSimilarPeriods, ID: 17, K: 5, Periods: []float64{7}},
		{Kind: core.KindBurstID, ID: 17, K: 5},
	}
	prepares := hub.Registry().Counter("engine_query_prepares_total", "")
	for name, s := range engines(t, gen.Dataset(96), core.Config{Budget: 8, Obs: hub}, 1, 3, 8) {
		before := prepares.Value()
		const rounds = 5
		for i := 0; i < rounds; i++ {
			for _, req := range append(index, scans...) {
				if _, err := s.Query(context.Background(), req); err != nil {
					t.Fatal(err)
				}
			}
		}
		if got, want := prepares.Value()-before, int64(rounds*len(index)); got != want {
			t.Errorf("%s: engine_query_prepares_total rose by %d over %d index searches and %d scans, want %d",
				name, got, rounds*len(index), rounds*len(scans), want)
		}
	}
}

// Under -race (run it with -count=10): 8 shards read one shared resolved
// query per request — its prepared spectrum, or the stored row a by-ID scan
// reads in place — while many requests run at once and others are
// cancelled mid-flight. Every completed answer must equal the serial one, a
// cancelled request must surface the context's error, and no scatter
// goroutine may outlive its request. The Envelope releases each prepared
// query to a pool that the next request draws from once the scatter has
// returned: a shard still reading one after its release would race with that
// request's Prepare, or find the released query's values gone and fail with
// a length mismatch.
func TestConcurrentScattersShareTheirPreparedQueries(t *testing.T) {
	const shards = 8
	gen := querylog.NewGenerator(querylog.DefaultStart, 128, 13)
	data := gen.Dataset(160)
	se, err := newSharded(core.SliceSource(data), core.Config{Budget: 8, Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	defer se.Close()

	var reqs []core.Request
	for i, q := range gen.Queries(4) {
		reqs = append(reqs,
			core.Request{Kind: core.KindSimilar, Values: q.Values, K: 3 + i},
			core.Request{Kind: core.KindSimilarID, ID: 9 * (i + 1), K: 2 + i},
			core.Request{Kind: core.KindLinear, ID: 9*(i+1) + 1, K: 2 + i})
	}
	// Queries that refine most of the corpus, so a cancel lands mid-refine.
	heavy := []core.Request{
		{Kind: core.KindSimilar, Values: gen.Queries(5)[4].Values, K: len(data)},
		{Kind: core.KindSimilarID, ID: 11, K: len(data) - 1},
	}
	want := make([]*core.Response, len(reqs))
	for i, req := range reqs {
		if want[i], err = se.Query(context.Background(), req); err != nil {
			t.Fatal(err)
		}
	}

	base := runtime.NumGoroutine()
	const workers, perWorker = 8, 30
	got := make([][]*core.Response, workers) // compared on the test goroutine, below
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				resp, err := se.Query(context.Background(), reqs[(w+i)%len(reqs)])
				if err != nil {
					t.Errorf("worker %d request %d: %v", w, i, err)
					return
				}
				got[w] = append(got[w], resp)
			}
		}(w)
	}
	sawCancel := false
	for i := 0; i < 60; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		errc := make(chan error, 1)
		go func() {
			_, err := se.Query(ctx, heavy[i%len(heavy)])
			errc <- err
		}()
		time.Sleep(time.Duration(i%6) * 50 * time.Microsecond)
		cancel()
		if err := <-errc; err != nil {
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("cancelled request %d: err = %v, want context.Canceled", i, err)
			}
			sawCancel = true
		}
	}
	wg.Wait()
	for w := range got {
		for i, resp := range got[w] {
			j := (w + i) % len(reqs)
			requireSameResponse(t, "concurrent "+reqs[j].Kind.String(), want[j], resp)
			if resp.Stats != want[j].Stats {
				t.Errorf("worker %d request %d: stats %+v, serial %+v", w, i, resp.Stats, want[j].Stats)
			}
		}
	}
	if !sawCancel {
		t.Error("no request observed its cancellation; abort path never exercised")
	}

	// Whatever scratch the aborted searches held went back to the pool
	// intact: the answers after the storm are still the serial ones.
	for i, req := range reqs {
		got, err := se.Query(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		requireSameResponse(t, "after cancellations: "+req.Kind.String(), want[i], got)
		if got.Stats != want[i].Stats {
			t.Errorf("request %d after cancellations: stats %+v, before %+v", i, got.Stats, want[i].Stats)
		}
	}

	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked: %d > baseline %d\n%s", runtime.NumGoroutine(), base, buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}
