package shard

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/querylog"
)

// FuzzShardRoute fuzzes the routing function and the routing tables built
// on top of it (run in CI via `make fuzz-smoke`; seed corpus under
// testdata/fuzz/FuzzShardRoute). Three properties must hold for any input:
//
//   - route is total: every (id, n>0) pair lands in [0, n).
//   - route is stable: the owner of an ID never changes for a fixed n.
//   - query-by-ID resolves on the owning shard: after the build, every
//     global ID's Owner agrees with route, the owner's local store holds
//     that exact series, and an ID-addressed query resolves it (returning
//     neighbours that exclude the series itself).
func FuzzShardRoute(f *testing.F) {
	f.Add(uint64(0), uint8(1), uint8(0))
	f.Add(uint64(1), uint8(3), uint8(2))
	f.Add(uint64(0x9e3779b97f4a7c15), uint8(8), uint8(5))
	f.Add(^uint64(0), uint8(16), uint8(1))
	f.Fuzz(func(t *testing.T, idRaw uint64, nRaw, sizeRaw uint8) {
		n := 1 + int(nRaw%16)

		// Totality and stability of the pure hash.
		sh := route(idRaw, n)
		if sh < 0 || sh >= n {
			t.Fatalf("route(%d, %d) = %d, out of range", idRaw, n, sh)
		}
		if again := route(idRaw, n); again != sh {
			t.Fatalf("route(%d, %d) unstable: %d then %d", idRaw, n, sh, again)
		}
		if got := route(idRaw, 1); got != 0 {
			t.Fatalf("route(%d, 1) = %d, want 0", idRaw, got)
		}

		// Model check against a real partition: build a small engine and
		// verify every ID resolves on its owner.
		engineShards := 1 + int(nRaw%8)
		gen := querylog.NewGenerator(querylog.DefaultStart, 64, int64(idRaw%1024))
		data := gen.Dataset(1 + int(idRaw%5) + int(sizeRaw%4))
		se, err := newSharded(core.SliceSource(data), core.Config{Budget: 8, Shards: engineShards})
		if err != nil {
			t.Fatalf("newSharded: %v", err)
		}
		defer se.Close()
		ctx := context.Background()
		for gid := 0; gid < se.Len(); gid++ {
			osh, local, ok := se.Owner(gid)
			if !ok {
				t.Fatalf("Owner(%d) unknown", gid)
			}
			if want := route(uint64(gid), engineShards); osh != want {
				t.Fatalf("Owner(%d) = shard %d, want route = %d", gid, osh, want)
			}
			eng := se.Engine(osh)
			if eng == nil {
				t.Fatalf("owner shard %d of %d is dormant", osh, gid)
			}
			want, err := eng.StandardizedValues(local)
			if err != nil {
				t.Fatalf("owner store of %d: %v", gid, err)
			}
			got, err := se.StandardizedValues(gid)
			if err != nil {
				t.Fatalf("StandardizedValues(%d): %v", gid, err)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("sequence %d differs from owner copy at %d", gid, i)
				}
			}
			resp, err := se.Query(ctx, core.Request{Kind: core.KindSimilarID, ID: gid, K: 3})
			if err != nil {
				t.Fatalf("query-by-id %d: %v", gid, err)
			}
			for _, nb := range resp.Neighbors {
				if nb.ID == gid {
					t.Fatalf("query-by-id %d returned itself", gid)
				}
			}
		}
	})
}
