package core

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"repro/internal/obs"
	"repro/internal/querylog"
)

// TestConcurrentFlatStressWithRollback hammers the search hot path while
// the engine churns: a writer alternates sabotaged Adds (a forced index
// insert failure → store rollback) with successful ones — each of which
// changes the flat index in place under the write lock — while readers run
// eight searches at a time and single ones, a canceller fires mid-traversal
// aborts and an HTTP client scrapes /debug and /v2/search. Run under -race in
// CI; afterwards the engine must hold every series and answer like brute
// force.
func TestConcurrentFlatStressWithRollback(t *testing.T) {
	hub := obs.NewHub()
	g := querylog.NewGenerator(querylog.DefaultStart, 128, 7)
	data := append(g.Exemplars(), g.Dataset(16)...)
	e, err := NewEngine(data, Config{Budget: 8, DynamicIndex: true, Workers: 8, Obs: hub})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	srv := httptest.NewServer(obs.Handler(hub,
		obs.Route{Pattern: "/v2/search", Handler: V2SearchHandler(e)}))
	defer srv.Close()

	extra := querylog.NewGenerator(querylog.DefaultStart, 128, 99).Queries(6)
	qs := g.Queries(8)
	batch := make([][]float64, 0, len(qs))
	for _, q := range qs {
		batch = append(batch, q.Values)
	}
	probe := batch[0]

	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // writer: rollback-forcing failure, then success, per series
		defer wg.Done()
		for _, s := range extra {
			// Add's index insert fails after the store append, so the
			// rollback path (store.Truncate) runs.
			e.FailNextIndexInsert(errInjected)
			if _, err := e.Add(s); !errors.Is(err, errInjected) {
				t.Errorf("sabotaged Add(%q): err = %v, want the injected failure", s.Name, err)
			}
			if _, err := e.Add(s); err != nil {
				t.Errorf("recovered Add(%q): %v", s.Name, err)
			}
		}
	}()
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) { // concurrent + serial readers
			defer wg.Done()
			for i := 0; i < 15; i++ {
				if err := fanSimilar(context.Background(), e, batch, 3); err != nil {
					t.Errorf("concurrent searches: %v", err)
				}
				if _, _, err := similarQueries(e, probe, 2+r); err != nil {
					t.Errorf("similar query: %v", err)
				}
			}
		}(r)
	}
	wg.Add(1)
	go func() { // canceller: aborts eight searches mid-flight
		defer wg.Done()
		for i := 0; i < 20; i++ {
			ctx, cancel := context.WithCancel(context.Background())
			done := make(chan struct{})
			go func() {
				defer close(done)
				if err := fanSimilar(ctx, e, batch, 3); err != nil &&
					!errors.Is(err, context.Canceled) {
					t.Errorf("cancelled searches: %v", err)
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

	if got := e.Len(); got != len(data)+len(extra) {
		t.Errorf("engine holds %d series after stress, want %d", got, len(data)+len(extra))
	}
	if ts := e.ScanTotals(); ts.Searches == 0 || ts.Bounds == 0 {
		t.Errorf("kernels unused during stress: %+v", ts)
	}
	// The engine must still answer exactly like brute force after churn.
	res, _, err := similarQueries(e, probe, 5)
	if err != nil {
		t.Fatalf("post-stress search: %v", err)
	}
	sameNeighbors(t, "post-stress", res, bruteNeighbors(t, e, probe, 5))
}
