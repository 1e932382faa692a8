package vptree

import (
	"reflect"
	"testing"

	"repro/internal/querylog"
	"repro/internal/seqstore"
	"repro/internal/spectral"
)

func buildSpecs(t *testing.T, n, seqLen int, seed int64) ([]*spectral.HalfSpectrum, []int, *seqstore.Memory, [][]float64) {
	t.Helper()
	g := querylog.NewGenerator(querylog.DefaultStart, seqLen, seed)
	data := querylog.StandardizeAll(g.Dataset(n))
	store, err := seqstore.NewMemory(seqLen)
	if err != nil {
		t.Fatal(err)
	}
	specs := make([]*spectral.HalfSpectrum, n)
	ids := make([]int, n)
	for i, s := range data {
		if ids[i], err = store.Append(s.Values); err != nil {
			t.Fatal(err)
		}
		if specs[i], err = spectral.FromValues(s.Values); err != nil {
			t.Fatal(err)
		}
	}
	var queries [][]float64
	for _, q := range querylog.StandardizeAll(g.Queries(4)) {
		queries = append(queries, q.Values)
	}
	return specs, ids, store, queries
}

// TestParallelBuildDeterministic: the bounded-pool parallel build must
// produce a flat index identical to the serial build's for any worker count —
// same vantage point choices (per-node RNG is derived from the node's path,
// not from goroutine scheduling), same medians, same leaves, same slots.
func TestParallelBuildDeterministic(t *testing.T) {
	// 200 series exceeds parallelSubtreeMin at several levels, so the
	// parallel path actually dispatches goroutines.
	specs, ids, store, queries := buildSpecs(t, 200, 128, 42)
	defer store.Close()

	serial, err := Build(specs, ids, Options{Budget: 8, Seed: 5, BuildWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 8} {
		par, err := Build(specs, ids, Options{Budget: 8, Seed: 5, BuildWorkers: workers})
		if err != nil {
			t.Fatalf("BuildWorkers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(serial.flat, par.flat) {
			t.Fatalf("BuildWorkers=%d: the flat index differs from the serial build's", workers)
		}
		if serial.Height() != par.Height() || serial.Len() != par.Len() {
			t.Errorf("BuildWorkers=%d: height/len differ", workers)
		}
		// Identical trees must do identical search work.
		for qi, q := range queries {
			rs, ss, err := serial.Search(q, 5, serial.Features(), store)
			if err != nil {
				t.Fatal(err)
			}
			rp, sp, err := par.Search(q, 5, par.Features(), store)
			if err != nil {
				t.Fatal(err)
			}
			if len(rs) != len(rp) {
				t.Fatalf("BuildWorkers=%d query %d: %d vs %d results", workers, qi, len(rs), len(rp))
			}
			for i := range rs {
				if rs[i] != rp[i] {
					t.Errorf("BuildWorkers=%d query %d result %d: %+v vs %+v", workers, qi, i, rs[i], rp[i])
				}
			}
			if ss != sp {
				t.Errorf("BuildWorkers=%d query %d: stats differ: %+v vs %+v", workers, qi, ss, sp)
			}
		}
	}
}

// TestParallelBuildMatchesBruteForce: sanity that a parallel-built tree is
// not just self-consistent but correct.
func TestParallelBuildMatchesBruteForce(t *testing.T) {
	specs, ids, store, queries := buildSpecs(t, 80, 64, 9)
	defer store.Close()
	values := make([][]float64, len(ids))
	for i, id := range ids {
		v := make([]float64, store.SeqLen())
		if err := store.GetInto(id, v); err != nil {
			t.Fatal(err)
		}
		values[i] = v
	}
	tree, err := Build(specs, ids, Options{Budget: 8, BuildWorkers: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range queries {
		got, _, err := tree.Search(q, 3, tree.Features(), store)
		if err != nil {
			t.Fatal(err)
		}
		want := bruteKNN(t, values, q, 3)
		for i := range got {
			if got[i].ID != want[i].ID {
				t.Errorf("result %d: ID %d, want %d", i, got[i].ID, want[i].ID)
			}
		}
	}
}
