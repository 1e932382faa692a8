package core

import (
	"context"
	"sync"
	"testing"

	"repro/internal/obs"
	"repro/internal/querylog"
	"repro/internal/vptree"
)

// Test shorthands over Query, one per search family: background context, no
// budget, answers unpacked.

func similarQueries(e Searcher, values []float64, k int) ([]Neighbor, vptree.Stats, error) {
	resp, err := e.Query(context.Background(), Request{Kind: KindSimilar, Values: values, K: k})
	if err != nil {
		return nil, vptree.Stats{}, err
	}
	return resp.Neighbors, resp.Stats, nil
}

func similarToID(e Searcher, id, k int) ([]Neighbor, vptree.Stats, error) {
	resp, err := e.Query(context.Background(), Request{Kind: KindSimilarID, ID: id, K: k})
	if err != nil {
		return nil, vptree.Stats{}, err
	}
	return resp.Neighbors, resp.Stats, nil
}

func neighborsOf(e Searcher, req Request) ([]Neighbor, error) {
	resp, err := e.Query(context.Background(), req)
	if err != nil {
		return nil, err
	}
	return resp.Neighbors, nil
}

func linearScan(e Searcher, values []float64, k int) ([]Neighbor, error) {
	return neighborsOf(e, Request{Kind: KindLinear, Values: values, K: k})
}

func similarDTW(e Searcher, id, band, k int) ([]Neighbor, error) {
	return neighborsOf(e, Request{Kind: KindDTW, ID: id, Band: band, K: k})
}

func similarByPeriods(e Searcher, id int, periods []float64, relTol float64, k int) ([]Neighbor, error) {
	return neighborsOf(e, Request{Kind: KindSimilarPeriods, ID: id, Periods: periods, RelTol: relTol, K: k})
}

func queryByBurst(e Searcher, values []float64, k int, w BurstWindow) ([]BurstMatch, error) {
	resp, err := e.Query(context.Background(), Request{Kind: KindBurst, Values: values, K: k, Window: w})
	if err != nil {
		return nil, err
	}
	return resp.Matches, nil
}

func queryByBurstOf(e Searcher, id, k int, w BurstWindow) ([]BurstMatch, error) {
	resp, err := e.Query(context.Background(), Request{Kind: KindBurstID, ID: id, K: k, Window: w})
	if err != nil {
		return nil, err
	}
	return resp.Matches, nil
}

// reopen saves e and loads the directory back under cfg: the engine
// `s2 -db` serves, its standardized rows in a disk store.
func reopen(t *testing.T, e *Engine, cfg Config) *Engine {
	t.Helper()
	dir := t.TempDir()
	if err := e.Save(dir); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadEngine(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { loaded.Close() })
	return loaded
}

// attrEngine builds a small engine with a hub and twelve held-out queries.
func attrEngine(t *testing.T, workers int) (*Engine, *obs.Hub, [][]float64) {
	t.Helper()
	hub := obs.NewHub()
	g := querylog.NewGenerator(querylog.DefaultStart, 128, 7)
	data := append(g.Exemplars(), g.Dataset(24)...)
	e, err := NewEngine(data, Config{Budget: 8, Workers: workers, Obs: hub})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	qs := g.Queries(12)
	qvals := make([][]float64, len(qs))
	for i, q := range qs {
		qvals[i] = q.Values
	}
	return e, hub, qvals
}

// fanSimilar answers every query of batch at once, one goroutine a query —
// the stress tests' source of simultaneous readers on the engine lock — and
// returns the first error by batch position.
func fanSimilar(ctx context.Context, e Searcher, batch [][]float64, k int) error {
	errs := make([]error, len(batch))
	var wg sync.WaitGroup
	for i, q := range batch {
		wg.Add(1)
		go func(i int, q []float64) {
			defer wg.Done()
			_, errs[i] = e.Query(ctx, Request{Kind: KindSimilar, Values: q, K: k})
		}(i, q)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
