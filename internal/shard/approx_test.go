package shard

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
)

// The approximate leg of the sharding contract (docs/approx.md property a):
// a quality dial explicitly set to zero must answer bit-identically to the
// plain exact request on the single engine AND on every shard count — the
// relaxed code paths collapse to the exact ones when ε=0/δ=0/nprobe=0.
// With the dial turned up the sharded answer keeps the bound-gap soundness
// certificate: dist/(1+gap) never exceeds the true distance at that rank.
func TestShardedApproxEquivalence(t *testing.T) {
	data, queries := eqCorpus()
	total := len(data)

	single, err := core.NewEngine(data, eqConfig(0))
	if err != nil {
		t.Fatalf("single engine: %v", err)
	}
	defer single.Close()

	counts := []int{1, 2, 8}
	sharded := make(map[int]*ShardedEngine, len(counts))
	for _, n := range counts {
		se, err := newSharded(core.SliceSource(data), eqConfig(n))
		if err != nil {
			t.Fatalf("sharded engine (%d shards): %v", n, err)
		}
		defer se.Close()
		sharded[n] = se
	}

	ctx := context.Background()
	rng := rand.New(rand.NewSource(23))
	approxSeen := 0
	for trial := 0; trial < 100; trial++ {
		req := eqRequest(rng, trial, total, queries)
		req.Budget = core.Budget{} // budgets are covered by the exact suite

		// Leg 1: explicit zero dial == exact, bit for bit, at every count.
		zero := req
		zero.Approx = core.Approx{Epsilon: 0, Delta: 0, NProbe: 0}
		want, werr := single.Query(ctx, req)
		if werr != nil {
			t.Fatalf("trial %d single: %v", trial, werr)
		}
		for _, n := range counts {
			label := fmt.Sprintf("trial %d (%s, k=%d, zero dial) on %d shards", trial, req.Kind, req.K, n)
			got, gerr := sharded[n].Query(ctx, zero)
			if gerr != nil {
				t.Fatalf("%s: %v", label, gerr)
			}
			if got.Approximate || got.EpsilonUsed != 0 {
				t.Fatalf("%s: stamped approximate=%v eps=%v", label, got.Approximate, got.EpsilonUsed)
			}
			requireSameResponse(t, label, want, got)
			for i, nb := range got.Neighbors {
				if nb.BoundGap != 0 {
					t.Fatalf("%s: rank %d carries gap %v", label, i, nb.BoundGap)
				}
			}
		}

		// Leg 2: a live dial stays sound through scatter-gather.
		live := req
		switch trial % 3 {
		case 0:
			live.Approx.Epsilon = 0.05 + rng.Float64()*0.4
		case 1:
			live.Approx.Delta = 0.05 + rng.Float64()*0.25
		case 2:
			live.Approx.Epsilon = rng.Float64() * 0.3
			live.Approx.NProbe = 2 + rng.Intn(12)
		}
		for _, n := range counts {
			label := fmt.Sprintf("trial %d (%s, k=%d, dial %+v) on %d shards", trial, req.Kind, req.K, live.Approx, n)
			got, gerr := sharded[n].Query(ctx, live)
			if gerr != nil {
				t.Fatalf("%s: %v", label, gerr)
			}
			if got.Approximate {
				approxSeen++
			} else {
				// No shortcut fired anywhere: merged answer must equal exact.
				requireSameResponse(t, label, want, got)
			}
			for i, nb := range got.Neighbors {
				if nb.BoundGap < 0 {
					t.Fatalf("%s: rank %d negative gap %v", label, i, nb.BoundGap)
				}
				if math.IsInf(nb.BoundGap, 1) || i >= len(want.Neighbors) {
					continue
				}
				exact := want.Neighbors[i].Dist
				if nb.Dist/(1+nb.BoundGap) > exact*(1+1e-9)+1e-9 {
					t.Fatalf("%s: rank %d dist %v / (1+gap %v) exceeds true %v",
						label, i, nb.Dist, nb.BoundGap, exact)
				}
			}
		}
	}
	if approxSeen == 0 {
		t.Fatal("no sharded trial ever took an approximation shortcut; the property was vacuous")
	}
}
