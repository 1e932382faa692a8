package core

import (
	"context"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"strings"
	"testing"

	"repro/internal/querylog"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite ../vptree/testdata/engine_sweep.golden from the current code")

// sweepTrial is one (query, k) pair of the engine-level sweep.
type sweepTrial struct {
	q []float64
	k int
}

// sweepCorpus builds the engine-level sweep: one 48-series engine and 100
// randomized (query, k) pairs including k ≥ n.
func sweepCorpus(t *testing.T) (*Engine, []sweepTrial) {
	const n = 48
	cfg := Config{Budget: 8, Workers: 4}
	g := querylog.NewGenerator(querylog.DefaultStart, 128, 105) // the seed the golden was recorded with
	e, err := NewEngine(g.Dataset(n), cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	qs := querylog.StandardizeAll(querylog.NewGenerator(querylog.DefaultStart, 128, 909).Queries(20))
	rng := rand.New(rand.NewSource(17))
	trials := make([]sweepTrial, 100)
	for i := range trials {
		trials[i] = sweepTrial{q: qs[i%len(qs)].Values, k: 1 + rng.Intn(n+5)}
	}
	return e, trials
}

// The golden was recorded at commit 8da3a1e, when the engine still had a
// pointer-traversal twin asserted equal to the serving path; Query must keep
// reproducing it byte for byte: IDs, distance bits, Stats, truncated.
func TestGoldenEngineSweep(t *testing.T) {
	var b strings.Builder
	e, trials := sweepCorpus(t)
	for trial, tr := range trials {
		resp, err := e.Query(context.Background(), Request{Kind: KindSimilar, Values: tr.q, K: tr.k})
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "trial=%d k=%d", trial, tr.k)
		for _, n := range resp.Neighbors {
			fmt.Fprintf(&b, " %d:%016x", n.ID, math.Float64bits(n.Dist))
		}
		fmt.Fprintf(&b, " | %+v truncated=%v\n", resp.Stats, resp.Truncated)
	}
	const path = "../vptree/testdata/engine_sweep.golden"
	if *updateGolden {
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	gl, wl := strings.Split(b.String(), "\n"), strings.Split(string(want), "\n")
	if len(gl) != len(wl) {
		t.Fatalf("%s: got %d lines, want %d", path, len(gl), len(wl))
	}
	for i := range gl {
		if gl[i] != wl[i] {
			t.Fatalf("%s line %d differs:\n got  %s\n want %s", path, i+1, gl[i], wl[i])
		}
	}
}
