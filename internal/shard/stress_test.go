package shard

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/querylog"
)

// TestShardedStressWithRollback hammers the scatter-gather path under -race:
// readers scatter every query kind, a canceller aborts queries mid-gather
// (each shard's gate rolled back into the parent's) and an HTTP client
// scrapes /debug and /v2/search. Afterwards the engine must answer exactly
// like a single engine over the same corpus.
func TestShardedStressWithRollback(t *testing.T) {
	const shards = 3
	hub := obs.NewHub()
	g := querylog.NewGenerator(querylog.DefaultStart, 128, 7)
	data := append(g.Exemplars(), g.Dataset(16)...)
	cfg := core.Config{Budget: 8, Workers: 4, Shards: shards, Obs: hub}
	se, err := newSharded(core.SliceSource(data), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer se.Close()

	srv := httptest.NewServer(obs.Handler(hub,
		obs.Route{Pattern: "/v2/search", Handler: core.V2SearchHandler(se)}))
	defer srv.Close()

	qs := g.Queries(4)
	baseLen := se.Len()

	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) { // readers: scatter every kind against the churn
			defer wg.Done()
			ctx := context.Background()
			for i := 0; i < 12; i++ {
				reqs := []core.Request{
					{Kind: core.KindSimilar, Values: qs[i%len(qs)].Values, K: 2 + r},
					{Kind: core.KindSimilarID, ID: (i + r) % baseLen, K: 3},
					{Kind: core.KindLinear, Values: qs[i%len(qs)].Values, K: 3},
					{Kind: core.KindDTW, ID: (i + r) % baseLen, Band: 7, K: 2},
					{Kind: core.KindBurstID, ID: (i + r) % baseLen, K: 3, Window: core.Short},
				}
				for _, req := range reqs {
					if _, err := se.Query(ctx, req); err != nil {
						t.Errorf("scattered %s: %v", req.Kind, err)
					}
				}
			}
		}(r)
	}
	wg.Add(1)
	go func() { // canceller: aborts scatters mid-gather
		defer wg.Done()
		for i := 0; i < 20; i++ {
			ctx, cancel := context.WithCancel(context.Background())
			done := make(chan struct{})
			go func() {
				defer close(done)
				req := core.Request{Kind: core.KindLinear, Values: qs[0].Values, K: 5}
				if _, err := se.Query(ctx, req); err != nil &&
					!errors.Is(err, context.Canceled) {
					t.Errorf("cancelled scatter: %v", err)
				}
			}()
			if i%2 == 0 {
				cancel()
			}
			<-done
			cancel()
		}
	}()
	wg.Add(1)
	go func() { // /debug scraper
		defer wg.Done()
		urls := []string{
			srv.URL + "/debug/vars",
			srv.URL + "/debug/metrics",
			srv.URL + "/v2/search?q=" + querylog.Cinema + "&k=3",
		}
		for i := 0; i < 10; i++ {
			for _, u := range urls {
				resp, err := http.Get(u)
				if err != nil {
					t.Errorf("GET %s: %v", u, err)
					continue
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("GET %s: status %d", u, resp.StatusCode)
				}
			}
		}
	}()
	wg.Wait()

	if gs := se.GatherStats(); gs.Scatters == 0 {
		t.Error("no scatters recorded during stress")
	}

	// After the stress the partition must still answer exactly like a
	// single engine over the same corpus.
	single, err := core.NewEngine(data, core.Config{Budget: 8, Workers: 4})
	if err != nil {
		t.Fatalf("post-stress twin engine: %v", err)
	}
	defer single.Close()
	ctx := context.Background()
	for i, req := range []core.Request{
		{Kind: core.KindSimilar, Values: qs[0].Values, K: 5},
		{Kind: core.KindSimilarID, ID: len(data) - 1, K: 4},
		{Kind: core.KindLinear, Values: qs[1].Values, K: 6},
		{Kind: core.KindBurstID, ID: 0, K: 5, Window: core.Long},
	} {
		want, werr := single.Query(ctx, req)
		got, gerr := se.Query(ctx, req)
		if werr != nil || gerr != nil {
			t.Fatalf("post-stress query %d (%s): single err=%v sharded err=%v", i, req.Kind, werr, gerr)
		}
		requireSameResponse(t, "post-stress "+req.Kind.String(), want, got)
	}
}

// TestShardedCancellationPropagates pins the abort contract of the scatter:
// the parent gate is Split across the shards, so cancelling the request
// context while sub-queries are in flight aborts every shard (the slow ones
// included), the scatter surfaces context.Canceled after Absorb, and no
// scatter goroutine outlives its query. The final goroutine census is the
// leak check.
func TestShardedCancellationPropagates(t *testing.T) {
	g := querylog.NewGenerator(querylog.DefaultStart, 128, 7)
	data := g.Dataset(48) // enough per-shard work for DTW to be mid-flight
	se, err := newSharded(core.SliceSource(data), core.Config{Budget: 8, Workers: 2, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer se.Close()

	base := runtime.NumGoroutine()
	sawCancel := false
	for i := 0; i < 40; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		errc := make(chan error, 1)
		go func(i int) {
			// DTW is the most expensive scatter — every shard scans its
			// whole partition — so cancellation lands mid-gather.
			_, err := se.Query(ctx, core.Request{Kind: core.KindDTW, ID: i % se.Len(), Band: 14, K: 5})
			errc <- err
		}(i)
		if i%3 == 0 {
			cancel() // before or during the scatter
		} else {
			time.Sleep(time.Duration(i%5) * 100 * time.Microsecond)
			cancel() // mid-gather
		}
		err := <-errc
		if err != nil {
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("iteration %d: err = %v, want context.Canceled", i, err)
			}
			sawCancel = true
		}
		cancel()
	}
	if !sawCancel {
		t.Error("no query observed the cancellation; abort path never exercised")
	}

	// Every Split child is Absorbed and every scatter goroutine joined
	// before Query returns, so the census must settle back to the baseline.
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= base+2 {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked after cancelled scatters: %d > baseline %d\n%s",
				runtime.NumGoroutine(), base, buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}
