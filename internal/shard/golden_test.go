package shard

import (
	"context"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/querylog"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/sharded_sweep.golden from the current code")

// The sharded counterpart of core's engine sweep: 96 series over 3 and 8
// shards, 50 randomized by-values and by-ID similarity queries each
// (including k ≥ n), pinned byte for byte — IDs, distance bits, the summed
// Stats and truncated. Recorded at commit a4b4920, before the store had a
// sketch; see CHANGES.md (PR 16) for how the re-recorded file relates to it.
func TestGoldenShardedSweep(t *testing.T) {
	const n = 96
	gen := querylog.NewGenerator(querylog.DefaultStart, 128, 211)
	data := gen.Dataset(n)
	queries := gen.Queries(10)
	var b strings.Builder
	for _, shards := range []int{3, 8} {
		e, err := newSharded(core.SliceSource(data), core.Config{Budget: 8, Workers: 2, Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(23))
		for trial := 0; trial < 50; trial++ {
			req := core.Request{Kind: core.KindSimilar, Values: queries[trial%len(queries)].Values, K: 1 + rng.Intn(n+5)}
			if trial%2 == 1 {
				req = core.Request{Kind: core.KindSimilarID, ID: rng.Intn(n), K: req.K}
			}
			resp, err := e.Query(context.Background(), req)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&b, "shards=%d trial=%d k=%d", shards, trial, req.K)
			for _, nb := range resp.Neighbors {
				fmt.Fprintf(&b, " %d:%016x", nb.ID, math.Float64bits(nb.Dist))
			}
			fmt.Fprintf(&b, " | %+v truncated=%v\n", resp.Stats, resp.Truncated)
		}
		e.Close()
	}
	const path = "testdata/sharded_sweep.golden"
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
