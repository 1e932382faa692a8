package vptree

import (
	"context"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"strings"
	"testing"

	"repro/internal/lifecycle"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/*.golden from the current code")

// goldenLine renders one search outcome exactly: IDs, distance bit patterns,
// the full Stats and the truncated flag.
func goldenLine(label string, res []Result, st Stats, truncated bool) string {
	var b strings.Builder
	b.WriteString(label)
	for _, r := range res {
		fmt.Fprintf(&b, " %d:%016x", r.ID, math.Float64bits(r.Dist))
	}
	fmt.Fprintf(&b, " | %+v truncated=%v\n", st, truncated)
	return b.String()
}

// checkGolden compares got with testdata/<name> byte for byte (or rewrites
// the file under -update-golden).
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := "testdata/" + name
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := range gl {
		if i >= len(wl) || gl[i] != wl[i] {
			w := "<missing>"
			if i < len(wl) {
				w = wl[i]
			}
			t.Fatalf("%s line %d differs:\n got  %s\n want %s", path, i+1, gl[i], w)
		}
	}
	t.Fatalf("%s: got %d lines, want %d", path, len(gl), len(wl))
}

// trialCorpus replays the 100 seeded trees of the randomized search suite:
// varied sizes, leaf widths, both bound families and k ≥ n edge cases.
func trialCorpus(t *testing.T, visit func(trial int, fx *fixture, q []float64, k int)) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 100; trial++ {
		n := 8 + rng.Intn(120)
		leaf := 2 + rng.Intn(30) // spans the 16–64-entry block regime at the top end
		opts := Options{
			LeafSize:    leaf,
			Seed:        int64(trial + 1),
			PaperBounds: trial%4 == 0,
		}
		fx := buildFixture(t, n, 64, opts, int64(trial+7))
		k := 1 + rng.Intn(n+4) // sometimes k ≥ n
		visit(trial, fx, fx.queries[trial%len(fx.queries)], k)
	}
}

// budgetCorpus replays one seeded tree under node budgets from 1 up.
func budgetCorpus(t *testing.T, visit func(fx *fixture, maxNodes, qi int, q []float64)) {
	fx := buildFixture(t, 80, 64, Options{LeafSize: 8, Seed: 3}, 11)
	for _, maxNodes := range []int{1, 2, 3, 5, 8, 13, 21, 100000} {
		for qi, q := range fx.queries {
			visit(fx, maxNodes, qi, q)
		}
	}
}

// The goldens were recorded at commit 8da3a1e, when a second, pointer-tree
// traversal still existed and was asserted equal to this one; the single
// traversal must keep reproducing them byte for byte.
func TestGoldenSearchCorpora(t *testing.T) {
	var trials strings.Builder
	trialCorpus(t, func(trial int, fx *fixture, q []float64, k int) {
		res, st, err := fx.tree.Search(q, k, fx.tree.Features(), fx.store)
		if err != nil {
			t.Fatal(err)
		}
		trials.WriteString(goldenLine(fmt.Sprintf("trial=%d k=%d", trial, k), res, st, false))
	})
	checkGolden(t, "search_trials.golden", trials.String())

	var budgets strings.Builder
	budgetCorpus(t, func(fx *fixture, maxNodes, qi int, q []float64) {
		g := lifecycle.NewGate(context.Background(), lifecycle.Limits{MaxNodes: maxNodes})
		res, st, truncated, err := fx.tree.SearchLimited(q, 5, fx.tree.Features(), fx.store, g)
		if err != nil {
			t.Fatal(err)
		}
		budgets.WriteString(goldenLine(fmt.Sprintf("max_nodes=%d q=%d", maxNodes, qi), res, st, truncated))
	})
	checkGolden(t, "search_budgets.golden", budgets.String())
}
