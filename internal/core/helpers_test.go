package core

import (
	"context"

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
