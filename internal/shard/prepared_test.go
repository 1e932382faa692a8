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

// The scatter transforms the query once and every shard's sub-request
// carries that same prepared query: the plan shares one pointer, and the
// registry all the shards count into sees one prepare per request, not one
// per shard.
func TestScatterPreparesTheQueryOnce(t *testing.T) {
	const shards = 8
	hub := obs.NewHub()
	gen := querylog.NewGenerator(querylog.DefaultStart, 128, 11)
	se, err := newSharded(gen.Dataset(96), core.Config{Budget: 8, Seed: 3, Shards: shards, Obs: hub})
	if err != nil {
		t.Fatal(err)
	}
	defer se.Close()
	q := gen.Queries(1)[0].Values
	reqs := []core.Request{
		{Kind: core.KindSimilar, Values: q, K: 5},
		{Kind: core.KindSimilarID, ID: 17, K: 5},
	}

	for _, req := range reqs {
		pl, err := se.plan(req, shards)
		if err != nil {
			t.Fatal(err)
		}
		if len(pl.subs) != shards || pl.subs[0].Prepared == nil {
			t.Fatalf("%s: %d sub-requests, prepared %v", req.Kind, len(pl.subs), pl.subs[0].Prepared)
		}
		for i, sub := range pl.subs {
			if sub.Prepared != pl.subs[0].Prepared {
				t.Fatalf("%s: shard %d got its own prepared query", req.Kind, i)
			}
		}
	}

	prepares := core.QueryPreparesCounter(hub.Registry())
	before := prepares.Value()
	const rounds = 5
	for i := 0; i < rounds; i++ {
		for _, req := range reqs {
			if _, err := se.Query(context.Background(), req); err != nil {
				t.Fatal(err)
			}
		}
	}
	if got, want := prepares.Value()-before, int64(rounds*len(reqs)); got != want {
		t.Fatalf("engine_query_prepares_total rose by %d over %d requests on %d shards, want %d",
			got, want, shards, want)
	}
}

// Under -race (run it with -count=10): 8 shards read one shared prepared
// query per request while many requests run at once and others are
// cancelled mid-flight. Every completed answer must equal the serial one, a
// cancelled request must surface the context's error, and no scatter
// goroutine may outlive its request. The scatter releases each prepared query
// to a pool that the next request draws from: a shard still reading one after
// its release would race with that request's Prepare, or find the released
// query's values gone and fail with a length mismatch.
func TestConcurrentScattersShareTheirPreparedQueries(t *testing.T) {
	const shards = 8
	gen := querylog.NewGenerator(querylog.DefaultStart, 128, 13)
	data := gen.Dataset(160)
	se, err := newSharded(data, core.Config{Budget: 8, Seed: 3, Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	defer se.Close()

	var reqs []core.Request
	for i, q := range gen.Queries(4) {
		reqs = append(reqs,
			core.Request{Kind: core.KindSimilar, Values: q.Values, K: 3 + i},
			core.Request{Kind: core.KindSimilarID, ID: 9 * (i + 1), K: 2 + i})
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
