package core

import (
	"context"
	"errors"
	"math"
	"testing"

	"repro/internal/querylog"
	"repro/internal/seqstore"
)

// sketchInStep asserts that the store's sketch covers exactly its rows and
// that the index search, which consults it, answers every indexed series
// exactly like the linear scan, which does not — IDs and distance bits. A
// sketch row out of step with its sequence (stale after a rollback, missing
// after a load) shows up as a neighbour wrongly skipped. It returns how many
// reads the sketch spared, so callers can require that it was exercised.
func sketchInStep(t *testing.T, e *Engine) (skips int) {
	t.Helper()
	if got, want := seqstore.NewReader(e.Store()).Sketch().Len(), e.Store().Len(); got != want {
		t.Fatalf("sketch covers %d rows, store has %d", got, want)
	}
	const k = 5
	for id := 0; id < e.Len(); id++ {
		resp, err := e.Query(context.Background(), Request{Kind: KindSimilarID, ID: id, K: k})
		if err != nil {
			t.Fatal(err)
		}
		skips += resp.Stats.SketchSkips
		z, err := e.StandardizedValues(id)
		if err != nil {
			t.Fatal(err)
		}
		lin, err := e.Query(context.Background(), Request{Kind: KindLinear, Values: z, Standardized: true, K: k + 1})
		if err != nil {
			t.Fatal(err)
		}
		want := make([]Neighbor, 0, k)
		for _, n := range lin.Neighbors {
			if n.ID != id && len(want) < k {
				want = append(want, n)
			}
		}
		if len(resp.Neighbors) != len(want) {
			t.Fatalf("id %d: index returned %d neighbours, scan %d", id, len(resp.Neighbors), len(want))
		}
		for i, n := range resp.Neighbors {
			if n.ID != want[i].ID || math.Float64bits(n.Dist) != math.Float64bits(want[i].Dist) {
				t.Fatalf("id %d rank %d: index %d@%v, scan %d@%v", id, i, n.ID, n.Dist, want[i].ID, want[i].Dist)
			}
		}
	}
	return skips
}

// The sketch is owned by whatever owns the rows, so every way rows come and
// go has to leave it in step: construction, Add, a failed Add's rollback
// followed by another series taking the same ID, and Save/Load (a disk store
// re-sketched on open).
func TestSketchTracksTheStore(t *testing.T) {
	g := querylog.NewGenerator(querylog.DefaultStart, 128, 5)
	data := g.Dataset(60)
	extra := querylog.NewGenerator(querylog.DefaultStart, 128, 91).Queries(8)

	e, err := NewEngine(data, Config{Budget: 8, DynamicIndex: true})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if skips := sketchInStep(t, e); skips == 0 {
		t.Errorf("the sketch spared no read over %d queries", e.Len())
	}
	for _, s := range extra[:4] {
		if _, err := e.Add(s); err != nil {
			t.Fatal(err)
		}
	}
	sketchInStep(t, e)

	// A failed Add appends the row, fails the index insert and truncates
	// the row back out; the next Add reuses the ID for another series.
	nextID := e.Len()
	e.FailNextIndexInsert(errInjected)
	if _, err := e.Add(extra[5]); !errors.Is(err, errInjected) {
		t.Fatalf("sabotaged Add: err = %v, want the injected failure", err)
	}
	sketchInStep(t, e)
	if id, err := e.Add(extra[6]); err != nil || id != nextID {
		t.Fatalf("Add after the rollback: id %d err %v, want id %d", id, err, nextID)
	}
	sketchInStep(t, e)

	if got := sketchInStep(t, reopen(t, e, Config{})); got == 0 {
		t.Error("the loaded engine's sketch spared no read")
	}
}

// The sketch spends no exact-distance budget and never lets the cap be
// exceeded; what it spares goes to candidates that can still matter, so a
// budgeted answer is at least as complete as without it.
func TestSketchRespectsExactBudget(t *testing.T) {
	e, g := buildEngine(t, 300, Config{Budget: 8}, 11)
	skipped := 0
	for qi, q := range g.Queries(10) {
		for _, cap := range []int{1, 3, 10, 40} {
			resp, err := e.Query(context.Background(), Request{
				Kind: KindSimilar, Values: q.Values, K: 5,
				Budget: Budget{MaxExactDistances: cap},
			})
			if err != nil {
				t.Fatal(err)
			}
			st := resp.Stats
			if st.ExactDistances > cap || st.FullRetrievals > cap {
				t.Fatalf("query %d cap %d: %d exact distances, %d reads", qi, cap, st.ExactDistances, st.FullRetrievals)
			}
			if !resp.Truncated && st.FullRetrievals+st.SketchSkips < 5 {
				t.Fatalf("query %d cap %d: untruncated with stats %+v", qi, cap, st)
			}
			skipped += st.SketchSkips
		}
	}
	if skipped == 0 {
		t.Error("no budgeted query exercised the sketch")
	}
}
