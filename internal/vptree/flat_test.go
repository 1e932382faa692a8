package vptree

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/lifecycle"
	"repro/internal/querylog"
	"repro/internal/seqstore"
	"repro/internal/series"
	"repro/internal/spectral"
)

// sameResults asserts two result lists are identical (IDs, distances, order).
func sameResults(t *testing.T, label string, got, want []Result) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: got %d results, want %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: result %d differs: got %+v, want %+v", label, i, got[i], want[i])
		}
	}
}

// outcome is everything one search reports.
type outcome struct {
	res       []Result
	st        Stats
	truncated bool
}

// searchWith runs one search of q under a fresh gate with the given node
// budget (0 = unlimited), bounds taken from feats.
func searchWith(t *testing.T, tr *Tree, q []float64, k, maxNodes int, feats FeatureSource, store seqstore.Store) outcome {
	t.Helper()
	pq, err := spectral.Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	g := lifecycle.NewGate(context.Background(), lifecycle.Limits{MaxNodes: maxNodes})
	res, st, truncated, err := tr.SearchPrepared(pq, k, feats, store, g)
	if err != nil {
		t.Fatal(err)
	}
	return outcome{res, st, truncated}
}

func sameOutcome(t *testing.T, label string, got, want outcome) {
	t.Helper()
	sameResults(t, label, got.res, want.res)
	if got.st != want.st || got.truncated != want.truncated {
		t.Fatalf("%s: stats/truncated diverge: %+v %v vs %+v %v",
			label, got.st, got.truncated, want.st, want.truncated)
	}
}

// diskCopy spills the tree's features to a file and returns the handle.
func diskCopy(t *testing.T, tr *Tree) *DiskFeatures {
	t.Helper()
	disk, err := WriteFeatures(filepath.Join(t.TempDir(), "feats.bin"), tr.Features())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { disk.Close() })
	return disk
}

// checkAgainstOracle asserts got is what an exact search may return: every
// neighbour carries its exact distance, the list is in canonical (dist, id)
// order, and — unless the search was truncated — rank for rank it has the
// brute-force top k's distances, bit for bit. That pins the IDs too, except
// among candidates tied at the k-th distance: the bounds are sound only up to
// rounding (an exact duplicate of the query can get a lower bound of 5e-6
// instead of 0), so which of several equidistant duplicates fill the last
// ranks is the one thing the oracle leaves open (DESIGN §5).
func checkAgainstOracle(t *testing.T, label string, fx *fixture, q []float64, k int, got outcome) {
	t.Helper()
	for i, r := range got.res {
		d, err := series.Euclidean(q, fx.values[r.ID])
		if err != nil {
			t.Fatal(err)
		}
		if r.Dist != d {
			t.Fatalf("%s: result %d (id %d) has dist %v, exact %v", label, i, r.ID, r.Dist, d)
		}
		if i > 0 && (got.res[i-1].Dist > r.Dist || (got.res[i-1].Dist == r.Dist && got.res[i-1].ID >= r.ID)) {
			t.Fatalf("%s: results %d,%d out of canonical order: %+v %+v", label, i-1, i, got.res[i-1], r)
		}
	}
	if got.truncated {
		return
	}
	want := bruteKNN(t, fx.values, q, k)
	if len(got.res) != len(want) {
		t.Fatalf("%s: got %d results, want %d", label, len(got.res), len(want))
	}
	for i := range want {
		if got.res[i].Dist != want[i].Dist {
			t.Fatalf("%s: rank %d is %+v, brute force has %+v", label, i, got.res[i], want[i])
		}
	}
}

// The one traversal against the brute-force oracle, over the 100 seeded
// trees: identical neighbours, bit-identical distances, canonical ties. Its
// two bound sources (the arena for the tree's own table, per-entry lookups
// for DiskFeatures) must not change a single result or Stats field.
func TestFlatSearchMatchesBruteForce100Trials(t *testing.T) {
	trialCorpus(t, func(trial int, fx *fixture, q []float64, k int) {
		mem := searchWith(t, fx.tree, q, k, 0, fx.tree.Features(), fx.store)
		if !fx.tree.opts.PaperBounds {
			// The fig. 9 bounds are not sound on every input (DESIGN §5), so
			// only SafeBounds trees answer to the oracle; the paper-bounds
			// trials are pinned by the golden and the equivalences below.
			checkAgainstOracle(t, "brute", fx, q, k, mem)
		}
		disk := searchWith(t, fx.tree, q, k, 0, diskCopy(t, fx.tree), fx.store)
		sameOutcome(t, "memory-vs-disk", disk, mem)
	})
}

// Under a node budget the search truncates: what it returns must still be
// exact-distance neighbours in canonical order (the brute-force top k once
// the budget is large enough), identically for both bound sources.
func TestFlatSearchUnderBudgets(t *testing.T) {
	var disk *DiskFeatures
	budgetCorpus(t, func(fx *fixture, maxNodes, qi int, q []float64) {
		if disk == nil {
			disk = diskCopy(t, fx.tree)
		}
		mem := searchWith(t, fx.tree, q, 5, maxNodes, fx.tree.Features(), fx.store)
		checkAgainstOracle(t, "budgeted", fx, q, 5, mem)
		if (maxNodes == 100000) == mem.truncated {
			t.Fatalf("budget %d query %d: truncated = %v", maxNodes, qi, mem.truncated)
		}
		sameOutcome(t, "memory-vs-disk", searchWith(t, fx.tree, q, 5, maxNodes, disk, fx.store), mem)
	})
}

// A cancelled context aborts the traversal with the context's error.
func TestFlatSearchCancelledContext(t *testing.T) {
	fx := buildFixture(t, 40, 64, Options{Seed: 5}, 13)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	g := lifecycle.NewGate(ctx, lifecycle.Limits{})
	_, _, _, err := fx.tree.SearchLimited(fx.queries[0], 3, fx.tree.Features(), fx.store, g)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled search: err = %v, want context.Canceled", err)
	}
}

// There is one traversal: searches over memory features and over disk
// features both enter it, so each advances the tree's kernel counters.
func TestFlatIsTheOnlyPath(t *testing.T) {
	fx := buildFixture(t, 60, 64, Options{Seed: 9}, 17)
	q := fx.queries[0]
	searches := map[string]func(){
		"memory": func() { searchWith(t, fx.tree, q, 3, 0, fx.tree.Features(), fx.store) },
		"disk":   func() { searchWith(t, fx.tree, q, 3, 0, diskCopy(t, fx.tree), fx.store) },
	}
	for name, search := range searches {
		before := fx.tree.KernelStats()
		search()
		after := fx.tree.KernelStats()
		if after.FlatSearches != before.FlatSearches+1 || after.KernelEvals <= before.KernelEvals ||
			after.LeafBlocks <= before.LeafBlocks {
			t.Errorf("%s search did not advance the kernel counters: %+v -> %+v", name, before, after)
		}
	}
	if got := fx.tree.KernelStats().MaxBlock; got <= 0 {
		t.Fatalf("expected positive max block, got %d", got)
	}
}

// Dynamic inserts change the flat index in place and repack it now and then:
// after inserts (including leaf splits) searches still answer exactly like
// brute force, and the tree's stats say what the inserts left behind.
func TestFlatDynamicRebuild(t *testing.T) {
	const seqLen = 64
	fx := buildFixture(t, 30, seqLen, Options{Dynamic: true, LeafSize: 4, Seed: 21}, 23)
	g := querylog.NewGenerator(querylog.DefaultStart, seqLen, 77)
	extra := querylog.StandardizeAll(g.Dataset(25))
	for _, s := range extra {
		id, err := fx.store.Append(s.Values)
		if err != nil {
			t.Fatal(err)
		}
		spec, err := spectral.FromValues(s.Values)
		if err != nil {
			t.Fatal(err)
		}
		if err := fx.tree.Insert(spec, id); err != nil {
			t.Fatal(err)
		}
		fx.values = append(fx.values, s.Values)
	}
	for _, q := range fx.queries {
		want := bruteKNN(t, fx.values, q, 7)
		got, _, err := fx.tree.Search(q, 7, fx.tree.Features(), fx.store)
		if err != nil {
			t.Fatal(err)
		}
		sameResults(t, "dynamic", got, want)
	}
	ks := fx.tree.KernelStats()
	if slots := len(fx.tree.flat.slotRef); ks.Repacks == 0 || ks.OutOfOrder == 0 || ks.OutOfOrder*repackDen > slots {
		t.Fatalf("after 25 inserts: %d repacks, %d slots out of order among %d", ks.Repacks, ks.OutOfOrder, slots)
	}
}

// checkWalkOrder asserts the flat index numbers features by their place in
// the walk: going through its nodes in DFS pre-order from node 0 — a vantage
// point, then its left and right subtrees, a leaf's entries in order — meets
// slots 0, 1, 2, … in turn, and the arena holds in each slot the feature
// slotRef names (its bounds against q are the bits the feature's own scalar
// bounds are).
func checkWalkOrder(t *testing.T, when string, tr *Tree, q []float64) {
	t.Helper()
	f := tr.flat
	next := int32(0)
	var walk func(ni int32)
	walk = func(ni int32) {
		fn := f.nodes[ni]
		if fn.leafLo >= 0 {
			for j := fn.leafLo; j < fn.leafHi; j++ {
				if f.leafSlots[j] != next {
					t.Fatalf("%s: leaf entry id %d sits in slot %d, the walk reaches it at %d", when, f.leafIDs[j], f.leafSlots[j], next)
				}
				next++
			}
			return
		}
		if fn.vpSlot != next {
			t.Fatalf("%s: vantage point id %d sits in slot %d, the walk reaches it at %d", when, fn.vpID, fn.vpSlot, next)
		}
		next++
		walk(fn.left)
		walk(fn.right)
	}
	walk(0)
	refs := f.slotRef
	if int(next) != len(refs) || f.arena.Len() != len(refs) {
		t.Fatalf("%s: the walk meets %d slots, slotRef has %d, the arena %d", when, next, len(refs), f.arena.Len())
	}
	pq, err := spectral.Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	for slot, ref := range refs {
		lb, ub, err := f.arena.BoundsAt(pq.Context(), slot, true)
		if err != nil {
			t.Fatal(err)
		}
		wantLB, wantUB, err := tr.features[ref].SafeBoundsFast(pq.Context())
		if err != nil {
			t.Fatal(err)
		}
		if lb != wantLB || ub != wantUB {
			t.Fatalf("%s: arena slot %d does not hold feature %d: bounds [%v, %v], the feature's [%v, %v]", when, slot, ref, lb, ub, wantLB, wantUB)
		}
	}
}

// countingFeatures is the tree's own feature table behind a type the flat
// index does not recognise as such, so a search handed one takes every bound
// from Feature(ref) and none from the arena.
type countingFeatures struct {
	MemoryFeatures
	lookups int
}

func (c *countingFeatures) Feature(ref int) (*spectral.Compressed, error) {
	c.lookups++
	return c.MemoryFeatures.Feature(ref)
}

// The arena is in walk order after Build and after a repack. Between repacks dynamic Inserts (leaf splits included) leave slots out
// of order, never more than the repack rule allows; and because slots are the arena's business alone, a search that
// bounds through DiskFeatures or through a substituted source still finds each
// feature by its ref and returns the same results and Stats.
func TestArenaIsInWalkOrder(t *testing.T) {
	const seqLen = 64
	fx := buildFixture(t, 90, seqLen, Options{Dynamic: true, LeafSize: 4, Seed: 5}, 29)
	q := fx.queries[0]
	sameFromEverySource := func(when string, tr *Tree) {
		t.Helper()
		for _, q := range fx.queries {
			arena := searchWith(t, tr, q, 6, 0, tr.Features(), fx.store)
			sameOutcome(t, when+": disk features", searchWith(t, tr, q, 6, 0, diskCopy(t, tr), fx.store), arena)
			double := &countingFeatures{MemoryFeatures: tr.Features()}
			sameOutcome(t, when+": substituted source", searchWith(t, tr, q, 6, 0, double, fx.store), arena)
			if double.lookups != arena.st.BoundsComputed {
				t.Fatalf("%s: %d lookups in the substituted source for %d bounds", when, double.lookups, arena.st.BoundsComputed)
			}
		}
	}
	// afterUpdate: exact walk order if the update ended in a repack, else what
	// is out of order is within the rule.
	repacks, disordered := 0, 0
	afterUpdate := func(when string) {
		t.Helper()
		ks := fx.tree.KernelStats()
		if ks.Repacks > repacks {
			repacks = ks.Repacks
			if ks.OutOfOrder != 0 {
				t.Fatalf("%s: %d slots out of order straight after a repack", when, ks.OutOfOrder)
			}
			checkWalkOrder(t, when, fx.tree, q)
			return
		}
		disordered += ks.OutOfOrder
		if slots := len(fx.tree.flat.slotRef); ks.OutOfOrder*repackDen > slots {
			t.Fatalf("%s: %d slots out of order among %d (one in %d allowed)", when, ks.OutOfOrder, slots, repackDen)
		}
	}
	checkWalkOrder(t, "built", fx.tree, q)
	sameFromEverySource("built", fx.tree)
	if slices.IsSorted(fx.tree.flat.slotRef) {
		t.Fatal("the fixture's walk order is its feature order; the test would pass on an arena in either")
	}

	g := querylog.NewGenerator(querylog.DefaultStart, seqLen, 83)
	for i, s := range querylog.StandardizeAll(g.Dataset(30)) {
		id, err := fx.store.Append(s.Values)
		if err != nil {
			t.Fatal(err)
		}
		spec, err := spectral.FromValues(s.Values)
		if err != nil {
			t.Fatal(err)
		}
		if err := fx.tree.Insert(spec, id); err != nil {
			t.Fatal(err)
		}
		afterUpdate(fmt.Sprintf("after insert %d", i))
		if i%10 == 4 {
			sameFromEverySource(fmt.Sprintf("after insert %d", i), fx.tree)
		}
	}
	sameFromEverySource("after inserts", fx.tree)
	if repacks == 0 || disordered == 0 {
		t.Fatalf("%d repacks, %d slots seen out of order; the test needs both", repacks, disordered)
	}
}

// The blocks-pruned counter must account exactly: over one search, blocks
// evaluated plus blocks pruned never exceeds the total leaf blocks, and on
// an unpruned exhaustive search (huge k) every block is evaluated.
func TestFlatBlockAccounting(t *testing.T) {
	fx := buildFixture(t, 100, 64, Options{LeafSize: 8, Seed: 43}, 47)
	totalBlocks := int64(fx.tree.flat.nodes[0].leafBlocks)
	base := fx.tree.KernelStats()
	if _, _, err := fx.tree.Search(fx.queries[0], 200, fx.tree.Features(), fx.store); err != nil {
		t.Fatal(err)
	}
	exhaustive := fx.tree.KernelStats()
	if got := exhaustive.LeafBlocks - base.LeafBlocks; got != totalBlocks {
		t.Fatalf("k≥n search evaluated %d of %d blocks", got, totalBlocks)
	}
	if _, _, err := fx.tree.Search(fx.queries[1], 1, fx.tree.Features(), fx.store); err != nil {
		t.Fatal(err)
	}
	tight := fx.tree.KernelStats()
	ev := tight.LeafBlocks - exhaustive.LeafBlocks
	pr := tight.BlocksPruned - exhaustive.BlocksPruned
	if ev+pr > totalBlocks {
		t.Fatalf("blocks evaluated (%d) + pruned (%d) exceed total (%d)", ev, pr, totalBlocks)
	}
}

// FuzzFlatSearch fuzzes the full search pipeline: a tree built from
// fuzz-derived series (int8 values, so distance ties are common), searched
// under fuzz-derived k and node budgets, must never panic and must answer
// to the brute-force oracle — the exact canonical top k when it ran to
// completion, exact-distance neighbours in canonical order when truncated.
func FuzzFlatSearch(f *testing.F) {
	f.Add([]byte{1, 2, 3}, uint8(3), uint8(0))
	f.Add([]byte("flat-search-roundtrip"), uint8(1), uint8(5))
	f.Add([]byte{0xff, 0x01, 0x80, 0x7f}, uint8(10), uint8(2))
	f.Fuzz(func(t *testing.T, data []byte, kRaw, budgetRaw uint8) {
		if len(data) == 0 {
			t.Skip()
		}
		const seqLen = 32
		n := 6 + int(data[0])%40
		store, err := seqstore.NewMemory(seqLen)
		if err != nil {
			t.Fatal(err)
		}
		specs := make([]*spectral.HalfSpectrum, n)
		ids := make([]int, n)
		fx := &fixture{store: store, values: make([][]float64, n)}
		for i := range specs {
			row := make([]float64, seqLen)
			for j := range row {
				row[j] = float64(int8(data[(i*13+j*7+1)%len(data)]))
			}
			fx.values[i] = row
			if ids[i], err = store.Append(row); err != nil {
				t.Fatal(err)
			}
			if specs[i], err = spectral.FromValues(row); err != nil {
				t.Fatal(err)
			}
		}
		fx.tree, err = Build(specs, ids, Options{LeafSize: 1 + int(data[len(data)-1])%12, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		q := make([]float64, seqLen)
		for j := range q {
			q[j] = float64(int8(data[(j*11+5)%len(data)]))
		}
		k := 1 + int(kRaw)%(n+2)
		maxNodes := int(budgetRaw) % 24 // 0 = unlimited
		got := searchWith(t, fx.tree, q, k, maxNodes, fx.tree.Features(), store)
		if maxNodes == 0 && got.truncated {
			t.Fatal("unlimited search reported truncation")
		}
		checkAgainstOracle(t, "fuzz", fx, q, k, got)
	})
}
