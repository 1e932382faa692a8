package core

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/querylog"
)

// approxTrialRequest draws one randomized approximate request over the
// distance kinds, cycling so 100 trials exercise every family and every
// quality-dial combination (ε only, δ only, nprobe only, mixed).
func approxTrialRequest(rng *rand.Rand, trial, total int) Request {
	req := Request{K: 1 + rng.Intn(5)}
	id := rng.Intn(total)
	switch trial % 4 {
	case 0:
		req.Kind, req.ID = KindSimilarID, id
	case 1:
		req.Kind, req.ID = KindDTW, id
		req.Band = 7
	case 2:
		req.Kind, req.ID = KindSimilarPeriods, id
		req.Periods = []float64{8, 16}
	case 3:
		req.Kind, req.ID = KindSimilarID, id
	}
	switch trial % 5 {
	case 0:
		req.Approx.Epsilon = 0.05 + rng.Float64()*0.5
	case 1:
		req.Approx.Delta = 0.05 + rng.Float64()*0.3
	case 2:
		req.Approx.NProbe = 1 + rng.Intn(8)
	case 3:
		req.Approx.Epsilon = rng.Float64() * 0.3
		req.Approx.Delta = rng.Float64() * 0.2
	case 4:
		req.Approx.Epsilon = 0.1 + rng.Float64()
		req.Approx.NProbe = 2 + rng.Intn(16)
	}
	return req
}

// Property (b) of docs/approx.md: BoundGap bounds the true relative error
// from above. For every rank i the approximate answer holds, the returned
// distance obeys dist_i / (1 + gap_i) <= exact_i — the reported gap is a
// sound (conservative) certificate, never an underestimate. An unbounded
// gap (+Inf, after an ng stop) promises nothing and is skipped.
func TestApproxBoundGapSound(t *testing.T) {
	e, _ := buildEngine(t, 60, Config{Budget: 8}, 9)
	ctx := context.Background()
	rng := rand.New(rand.NewSource(17))
	total := e.Len()
	approxSeen := 0
	for trial := 0; trial < 100; trial++ {
		req := approxTrialRequest(rng, trial, total)
		got, err := e.Query(ctx, req)
		if err != nil {
			t.Fatalf("trial %d (%+v): %v", trial, req, err)
		}
		exactReq := req
		exactReq.Approx = Approx{}
		want, err := e.Query(ctx, exactReq)
		if err != nil {
			t.Fatalf("trial %d exact twin: %v", trial, err)
		}
		if got.Approximate {
			approxSeen++
			if got.EpsilonUsed != req.Approx.Epsilon {
				t.Fatalf("trial %d: epsilon_used = %v, want %v", trial, got.EpsilonUsed, req.Approx.Epsilon)
			}
		} else {
			// No approximation decision differed from the exact one, so the
			// answer must be bit-identical to the exact twin.
			if len(got.Neighbors) != len(want.Neighbors) {
				t.Fatalf("trial %d: non-approximate answer has %d neighbours, exact has %d",
					trial, len(got.Neighbors), len(want.Neighbors))
			}
			for i := range want.Neighbors {
				if got.Neighbors[i].ID != want.Neighbors[i].ID ||
					got.Neighbors[i].Dist != want.Neighbors[i].Dist {
					t.Fatalf("trial %d: non-approximate answer differs at rank %d: %+v vs %+v",
						trial, i, got.Neighbors[i], want.Neighbors[i])
				}
			}
		}
		for i, n := range got.Neighbors {
			if n.BoundGap < 0 {
				t.Fatalf("trial %d rank %d: negative bound gap %v", trial, i, n.BoundGap)
			}
			if !got.Approximate && n.BoundGap != 0 {
				t.Fatalf("trial %d rank %d: exact answer carries gap %v", trial, i, n.BoundGap)
			}
			if math.IsInf(n.BoundGap, 1) || i >= len(want.Neighbors) {
				continue
			}
			exact := want.Neighbors[i].Dist
			if n.Dist/(1+n.BoundGap) > exact*(1+1e-9)+1e-9 {
				t.Fatalf("trial %d (%+v) rank %d: dist %v / (1+gap %v) = %v exceeds true distance %v",
					trial, req, i, n.Dist, n.BoundGap, n.Dist/(1+n.BoundGap), exact)
			}
		}
	}
	if approxSeen == 0 {
		t.Fatal("no trial ever took an approximation shortcut; the property was vacuous")
	}
}

// The ε=0/δ=0 leg of property (a): a quality dial explicitly set to zero
// travels the relaxed code paths but must answer bit-identically to the
// plain exact request — including the Approximate stamp staying false.
func TestApproxZeroIsExact(t *testing.T) {
	e, _ := buildEngine(t, 50, Config{Budget: 8}, 13)
	ctx := context.Background()
	rng := rand.New(rand.NewSource(29))
	total := e.Len()
	for trial := 0; trial < 100; trial++ {
		req := approxTrialRequest(rng, trial, total)
		req.Approx = Approx{Epsilon: 0, Delta: 0, NProbe: 0}
		want, err := e.Query(ctx, req)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		exactReq := req
		exactReq.Approx = Approx{}
		got, err := e.Query(ctx, exactReq)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if want.Approximate || got.Approximate {
			t.Fatalf("trial %d: zero dial stamped approximate", trial)
		}
		if len(want.Neighbors) != len(got.Neighbors) {
			t.Fatalf("trial %d: %d vs %d neighbours", trial, len(want.Neighbors), len(got.Neighbors))
		}
		for i := range want.Neighbors {
			if want.Neighbors[i] != got.Neighbors[i] {
				t.Fatalf("trial %d rank %d: %+v vs %+v", trial, i, want.Neighbors[i], got.Neighbors[i])
			}
		}
	}
}

// recallEpsilon is the canonical quality-dial setting: the ε a caller
// reaching for "fast but still faithful" should start from (docs/approx.md).
// Calibrated so that recall@k stays ≥ recallFloor on the two corpora below
// while the relaxed pruning still measurably cuts traversal work; wider
// settings trade more recall for speed and are not gated.
const (
	recallEpsilon = 0.05
	recallFloor   = 0.99
)

// TestApproxRecallFloor scores the dial at recallEpsilon against its exact
// twin: recall@k over the held-out queries stays at or above recallFloor and
// every finite BoundGap is a non-negative certificate; at ε = 0 the answer is
// the exact one, flagged exact. A bound tested against the relaxed cutoff
// where the exact one belongs (the sketch test in knn.Refine, once) shows up
// here as recall in the 0.8s.
func TestApproxRecallFloor(t *testing.T) {
	for _, c := range []struct{ series, days, queries, budget, k int }{
		{64, 128, 4, 8, 3},
		{512, 512, 16, 16, 5},
	} {
		g := querylog.NewGenerator(querylog.DefaultStart, c.days, 1)
		data := append(g.Exemplars(), g.Dataset(c.series)...)
		e, err := NewEngine(data, Config{Budget: c.budget})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { e.Close() })
		var hits, wanted int
		for i, q := range g.Queries(c.queries) {
			ask := func(eps float64) *Response {
				resp, err := e.Query(context.Background(), Request{
					Kind: KindSimilar, Values: q.Values, K: c.k, Approx: Approx{Epsilon: eps},
				})
				if err != nil {
					t.Fatalf("%dx%d query %d at ε=%v: %v", c.series, c.days, i, eps, err)
				}
				return resp
			}
			exact := ask(0)
			if exact.Approximate {
				t.Errorf("%dx%d query %d: the ε=0 answer is flagged approximate", c.series, c.days, i)
			}
			inExact := make(map[int]bool, len(exact.Neighbors))
			for _, n := range exact.Neighbors {
				inExact[n.ID] = true
				if n.BoundGap != 0 {
					t.Errorf("%dx%d query %d: ε=0 neighbour %d has bound gap %v", c.series, c.days, i, n.ID, n.BoundGap)
				}
			}
			wanted += len(exact.Neighbors)
			for _, n := range ask(recallEpsilon).Neighbors {
				if inExact[n.ID] {
					hits++
				}
				if !math.IsInf(n.BoundGap, 1) && !(n.BoundGap >= 0) {
					t.Errorf("%dx%d query %d: neighbour %d has bound gap %v", c.series, c.days, i, n.ID, n.BoundGap)
				}
			}
		}
		if recall := float64(hits) / float64(wanted); recall < recallFloor {
			t.Errorf("%dx%d: recall@%d = %.4f at ε=%v, want ≥ %v", c.series, c.days, c.k, recall, recallEpsilon, recallFloor)
		}
	}
}

func TestApproxValidate(t *testing.T) {
	bad := []Approx{
		{Epsilon: -0.1},
		{Epsilon: math.NaN()},
		{Epsilon: math.Inf(1)},
		{Delta: -0.01},
		{Delta: 1.01},
		{Delta: math.NaN()},
		{NProbe: -1},
	}
	for _, a := range bad {
		if err := a.Validate(); err == nil {
			t.Errorf("Validate(%+v) accepted", a)
		}
	}
	good := []Approx{{}, {Epsilon: 0.5}, {Delta: 1}, {NProbe: 100}, {Epsilon: 2, Delta: 0.5, NProbe: 3}}
	for _, a := range good {
		if err := a.Validate(); err != nil {
			t.Errorf("Validate(%+v) rejected: %v", a, err)
		}
	}
	if (Approx{}).Enabled() {
		t.Error("zero Approx reports Enabled")
	}
	if !(Approx{Epsilon: 0.1}).Enabled() || !(Approx{Delta: 0.1}).Enabled() || !(Approx{NProbe: 1}).Enabled() {
		t.Error("non-zero dial reports disabled")
	}
}
