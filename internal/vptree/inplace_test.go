package vptree

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"repro/internal/israce"
	"repro/internal/querylog"
	"repro/internal/spectral"
)

// canonical lists everything a search can see of tr's flat index f, following
// the links from node 0 in pre-order: each node's median, vantage point and
// leaf-block count, each leaf's IDs in order, and for every slot
// met the ref of the feature in it — having checked that the arena, if there
// is one, holds that very feature there (its bounds against q are the bits the
// feature's own are). Node indices, slot numbers and where a leaf's range lies
// are layout, and left out.
func canonical(t *testing.T, when string, tr *Tree, f *flatIndex, q *spectral.Prepared) string {
	t.Helper()
	var b strings.Builder
	ref := func(slot int32) int32 {
		r := f.slotRef[slot]
		if f.arena != nil {
			lb, ub, err := f.arena.BoundsAt(q.Context(), int(slot), true)
			if err != nil {
				t.Fatal(err)
			}
			wantLB, wantUB, err := tr.features[r].SafeBoundsFast(q.Context())
			if err != nil {
				t.Fatal(err)
			}
			if lb != wantLB || ub != wantUB {
				t.Fatalf("%s: arena slot %d does not hold feature %d: bounds [%v, %v], the feature's [%v, %v]", when, slot, r, lb, ub, wantLB, wantUB)
			}
		}
		return r
	}
	var walk func(ni int32)
	walk = func(ni int32) {
		fn := f.nodes[ni]
		if fn.leafLo >= 0 {
			if fn.leafHi > fn.leafCap || int(fn.leafCap) > len(f.leafIDs) || len(f.leafIDs) != len(f.leafSlots) {
				t.Fatalf("%s: leaf range [%d, %d) cap %d of %d/%d", when, fn.leafLo, fn.leafHi, fn.leafCap, len(f.leafIDs), len(f.leafSlots))
			}
			fmt.Fprintf(&b, "leaf blocks=%d ids=%v refs=[", fn.leafBlocks, f.leafIDs[fn.leafLo:fn.leafHi])
			for _, s := range f.leafSlots[fn.leafLo:fn.leafHi] {
				fmt.Fprintf(&b, " %d", ref(s))
			}
			b.WriteString(" ]\n")
			return
		}
		fmt.Fprintf(&b, "vp id=%d ref=%d median=%x blocks=%d\n", fn.vpID, ref(fn.vpSlot), fn.median, fn.leafBlocks)
		walk(fn.left)
		walk(fn.right)
	}
	walk(0)
	return b.String()
}

// relaidOut is a second tree over tr's feature table whose flat index is a
// fresh layout of tr's own.
func relaidOut(t *testing.T, tr *Tree) *Tree {
	t.Helper()
	f, err := layout(tr.flat.walk(), tr.features)
	if err != nil {
		t.Fatal(err)
	}
	return &Tree{seqLen: tr.seqLen, opts: tr.opts, features: tr.features, specByID: tr.specByID, flat: f}
}

// churn drives seeded inserts against a fixture's dynamic tree.
type churn struct {
	fx   *fixture
	rng  *rand.Rand
	pool [][]float64 // series not inserted yet
}

func newChurn(t *testing.T, fx *fixture, extra, seqLen int, seed int64) *churn {
	t.Helper()
	c := &churn{fx: fx, rng: rand.New(rand.NewSource(seed))}
	g := querylog.NewGenerator(querylog.DefaultStart, seqLen, seed)
	for _, s := range querylog.StandardizeAll(g.Dataset(extra)) {
		c.pool = append(c.pool, s.Values)
	}
	return c
}

// insert puts values under id into the tree (a new row of the store when id
// is the next one).
func (c *churn) insert(t *testing.T, id int, values []float64) error {
	t.Helper()
	if id == len(c.fx.values) {
		if _, err := c.fx.store.Append(values); err != nil {
			t.Fatal(err)
		}
		c.fx.values = append(c.fx.values, values)
	}
	spec, err := spectral.FromValues(values)
	if err != nil {
		t.Fatal(err)
	}
	return c.fx.tree.Insert(spec, id)
}

// oracle is the brute-force top k over the series.
func (c *churn) oracle(t *testing.T, q []float64, k int) []Result {
	t.Helper()
	return bruteKNN(t, c.fx.values, q, k)
}

// checkInPlace asserts the flat index Insert has been keeping is, to a
// search, the one a fresh layout of itself gives; that
// what is out of walk order in it stays within the repack rule; and that
// searches through it return the fresh index's results and Stats and the
// oracle's neighbours.
func (c *churn) checkInPlace(t *testing.T, when string, q []float64) {
	t.Helper()
	tr := c.fx.tree
	pq, err := spectral.Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	fresh := relaidOut(t, tr)
	if got, want := canonical(t, when, tr, tr.flat, pq), canonical(t, when, fresh, fresh.flat, pq); got != want {
		t.Fatalf("%s: the flat index kept in place is not its fresh layout:\n got:\n%s\n want:\n%s", when, got, want)
	}
	if tr.flat.maxLeaf < fresh.flat.maxLeaf || tr.flat.arena.Len() != len(tr.features) {
		t.Fatalf("%s: maxLeaf %d (fresh %d), an arena of %d for %d features", when, tr.flat.maxLeaf, fresh.flat.maxLeaf, tr.flat.arena.Len(), len(tr.features))
	}
	ks := tr.KernelStats()
	if slots := len(tr.flat.slotRef); ks.OutOfOrder*repackDen > slots {
		t.Fatalf("%s: %d slots out of order among %d, more than one in %d", when, ks.OutOfOrder, slots, repackDen)
	}
	got := searchWith(t, tr, q, 5, 0, tr.Features(), c.fx.store)
	sameOutcome(t, when+": in place vs fresh", got, searchWith(t, fresh, q, 5, 0, fresh.Features(), c.fx.store))
	sameResults(t, when+": oracle", got.res, c.oracle(t, q, 5))
}

// After each of 600 seeded operations — inserts that grow leaves in place,
// relocate them and split them, and now and then an insert of an ID the tree
// already holds, which must change nothing — the flat index is, to a search,
// its own fresh layout, across several repacks, for fixed-size
// features and for the energy scheme's variable-size ones.
func TestFlatInPlaceMatchesRebuild(t *testing.T) {
	const seqLen, ops = 64, 600
	for name, opts := range map[string]Options{
		"budget": {Dynamic: true, LeafSize: 4, Seed: 3},
		"energy": {Dynamic: true, LeafSize: 3, Seed: 4, EnergyFraction: 0.9},
	} {
		t.Run(name, func(t *testing.T) {
			fx := buildFixture(t, 160, seqLen, opts, 41)
			c := newChurn(t, fx, ops, seqLen, 43)
			tr := fx.tree
			nodes := len(tr.flat.nodes)
			duplicates := 0
			for op := 0; op < ops; op++ {
				when := fmt.Sprintf("op %d", op)
				if op%50 == 49 {
					id := c.rng.Intn(len(fx.values))
					when += fmt.Sprintf(": insert %d again", id)
					if err := c.insert(t, id, c.pool[0]); !errors.Is(err, ErrDuplicateID) {
						t.Fatalf("%s: %v, want ErrDuplicateID", when, err)
					}
					duplicates++
				} else {
					when += fmt.Sprintf(": insert %d", len(fx.values))
					if err := c.insert(t, len(fx.values), c.pool[0]); err != nil {
						t.Fatalf("%s: %v", when, err)
					}
					c.pool = c.pool[1:]
				}
				if tr.Len() != len(fx.values) {
					t.Fatalf("%s: Len %d, %d series", when, tr.Len(), len(fx.values))
				}
				c.checkInPlace(t, when, fx.queries[op%len(fx.queries)])
			}
			if duplicates == 0 || len(tr.flat.nodes) <= nodes && tr.repacks == 0 {
				t.Fatalf("the run missed a case: %d duplicate inserts, nodes %d -> %d", duplicates, nodes, len(tr.flat.nodes))
			}
			t.Logf("%d repacks, nodes %d -> %d", tr.repacks, nodes, len(tr.flat.nodes))
			if ks := tr.KernelStats(); ks.Repacks < 2 {
				t.Fatalf("%d repacks in %d operations, want at least 2", ks.Repacks, ops)
			}
		})
	}
}

// A search through a substituted feature source goes without the arena and
// takes its bounds per entry through slotRef; in-place inserts, splits and
// repacks included, keep that path answering like the oracle and the arena.
func TestFlatInPlaceWithoutArena(t *testing.T) {
	const seqLen = 64
	fx := buildFixture(t, 40, seqLen, Options{Dynamic: true, LeafSize: 4, Seed: 9}, 19)
	c := newChurn(t, fx, 30, seqLen, 23)
	tr := fx.tree
	nodes := len(tr.flat.nodes)
	for i, values := range c.pool {
		if err := c.insert(t, len(fx.values), values); err != nil {
			t.Fatal(err)
		}
		for _, q := range fx.queries {
			got := searchWith(t, tr, q, 6, 0, tr.Features(), fx.store)
			sameResults(t, "oracle", got.res, c.oracle(t, q, 6))
			double := &countingFeatures{MemoryFeatures: tr.Features()}
			sameOutcome(t, "substituted source", searchWith(t, tr, q, 6, 0, double, fx.store), got)
			if double.lookups != got.st.BoundsComputed {
				t.Fatalf("insert %d: %d lookups in the substituted source for %d bounds", i, double.lookups, got.st.BoundsComputed)
			}
		}
	}
	if tr.repacks == 0 || len(tr.flat.nodes) <= nodes {
		t.Fatalf("the run missed a case: %d repacks, nodes %d -> %d", tr.repacks, nodes, len(tr.flat.nodes))
	}
}

// routedLeaf is the node of the leaf an insert of spec would reach.
func routedLeaf(t *testing.T, tr *Tree, spec *spectral.HalfSpectrum) *flatNode {
	t.Helper()
	fn := &tr.flat.nodes[0]
	for fn.leafLo < 0 {
		d, err := spectral.Distance(tr.specByID[fn.vpID], spec)
		if err != nil {
			t.Fatal(err)
		}
		if d <= fn.median {
			fn = &tr.flat.nodes[fn.left]
		} else {
			fn = &tr.flat.nodes[fn.right]
		}
	}
	return fn
}

// An Insert that fails — here in the rebuild of the leaf it overflows, one of
// whose spectra has gone missing — leaves the feature table and the flat
// index as they were, and the same ID then inserts cleanly.
func TestFlatInPlaceFailedInsertChangesNothing(t *testing.T) {
	const seqLen = 64
	fx := buildFixture(t, 50, seqLen, Options{Dynamic: true, LeafSize: 2, Seed: 13}, 17)
	c := newChurn(t, fx, 40, seqLen, 29)
	tr := fx.tree
	q := fx.queries[0]
	pq, err := spectral.Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	for _, values := range c.pool {
		spec, err := spectral.FromValues(values)
		if err != nil {
			t.Fatal(err)
		}
		id := len(fx.values)
		full := routedLeaf(t, tr, spec)
		if int(full.leafHi-full.leafLo) < 2*tr.opts.LeafSize {
			if err := c.insert(t, id, values); err != nil {
				t.Fatal(err)
			}
			continue
		}

		victim := tr.flat.leafIDs[full.leafLo]
		held := tr.specByID[victim]
		delete(tr.specByID, victim)
		n, feats, slots, nodes := tr.Len(), len(tr.Features()), len(tr.flat.slotRef), len(tr.flat.nodes)
		rows := tr.flat.arena.Coeffs()
		walk := canonical(t, "before", tr, tr.flat, pq)
		before := searchWith(t, tr, q, 5, 0, tr.Features(), fx.store)

		if err := tr.Insert(spec, id); err == nil {
			t.Fatal("the insert rebuilt a leaf without one of its spectra")
		}
		if tr.Len() != n || len(tr.Features()) != feats || len(tr.flat.slotRef) != slots || len(tr.flat.nodes) != nodes ||
			tr.flat.arena.Len() != slots || tr.flat.arena.Coeffs() != rows {
			t.Fatalf("the failed insert left its mark: Len %d -> %d, features %d -> %d, slots %d -> %d (arena %d), nodes %d -> %d",
				n, tr.Len(), feats, len(tr.Features()), slots, len(tr.flat.slotRef), tr.flat.arena.Len(), nodes, len(tr.flat.nodes))
		}
		if _, kept := tr.specByID[id]; kept {
			t.Fatal("the failed insert retained its spectrum")
		}
		if got := canonical(t, "after", tr, tr.flat, pq); got != walk {
			t.Fatalf("the failed insert changed the flat index:\n got:\n%s\n want:\n%s", got, walk)
		}
		sameOutcome(t, "after the failed insert", searchWith(t, tr, q, 5, 0, tr.Features(), fx.store), before)

		tr.specByID[victim] = held
		if err := c.insert(t, id, values); err != nil {
			t.Fatalf("the same ID after the failure: %v", err)
		}
		if len(tr.flat.nodes) == nodes {
			t.Fatal("the insert that went through did not split the leaf")
		}
		c.checkInPlace(t, "after the retried insert", q)
		return
	}
	t.Fatal("no insert reached a full leaf")
}

// insertCost measures one Insert that splits nothing into a tree of n objects:
// heap allocations and bytes. Every measured insert adds the same spectrum
// under a new ID, so all of them land in one leaf, which LeafSize leaves room
// for. The bytes are the fewest of three measurements on one P: TotalAlloc
// counts the whole process, and whatever else allocates meanwhile (a
// collection's workers, a timer) can only add to it.
func insertCost(t *testing.T, n int) (allocs float64, bytes uint64) {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const seqLen, runs, measurements = 64, 8, 3
	const inserts = 1 + runs + measurements*runs // AllocsPerRun's warm-up, its runs, then ours
	fx := buildFixture(t, n, seqLen, Options{Dynamic: true, Seed: 7, LeafSize: inserts}, 11)
	tr := fx.tree
	spec, err := spectral.FromValues(querylog.StandardizeAll(querylog.NewGenerator(querylog.DefaultStart, seqLen, 5).Dataset(1))[0].Values)
	if err != nil {
		t.Fatal(err)
	}
	leaf := routedLeaf(t, tr, spec)
	id := n
	op := func() {
		if err := tr.Insert(spec, id); err != nil {
			t.Fatal(err)
		}
		id++
	}
	// AllocsPerRun's warm-up call is the one that moves the leaf to where it has
	// room and grows the slices that were sized exactly.
	allocs = testing.AllocsPerRun(runs, op)
	bytes = math.MaxUint64
	for range measurements {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range runs {
			op()
		}
		runtime.ReadMemStats(&after)
		bytes = min(bytes, (after.TotalAlloc-before.TotalAlloc)/runs)
	}
	if tr.repacks != 0 || routedLeaf(t, tr, spec) != leaf || id != n+inserts {
		t.Fatalf("n=%d: the measured inserts ran into a repack or a split", n)
	}
	return allocs, bytes
}

// What an Insert allocates does not depend on how much the tree holds: the
// feature, and nothing that is sized by n.
func TestFlatInPlaceInsertAllocatesIndependentOfN(t *testing.T) {
	if israce.Enabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	smallAllocs, smallBytes := insertCost(t, 512)
	largeAllocs, largeBytes := insertCost(t, 8192)
	if smallAllocs != largeAllocs || smallBytes != largeBytes {
		t.Fatalf("an insert allocates %v times, %d B at n=512 and %v times, %d B at n=8192", smallAllocs, smallBytes, largeAllocs, largeBytes)
	}
	t.Logf("an insert allocates %v times, %d B", smallAllocs, smallBytes)
}

// BenchmarkDynamicInsert times Insert into a tree of n objects, rebuilt outside
// the timer after every fresh inserts so that it holds n to n+fresh: the cost
// should follow the depth of the tree, not its size (the occasional leaf split
// and the amortised repack are in it).
func BenchmarkDynamicInsert(b *testing.B) {
	const seqLen = 128
	for _, n := range []int{512, 4096, 32768} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			fresh := min(n/2, 1024)
			g := querylog.NewGenerator(querylog.DefaultStart, seqLen, 35)
			data := querylog.StandardizeAll(g.Dataset(n + fresh))
			specs := make([]*spectral.HalfSpectrum, len(data))
			ids := make([]int, len(data))
			for i, s := range data {
				var err error
				if specs[i], err = spectral.FromValues(s.Values); err != nil {
					b.Fatal(err)
				}
				ids[i] = i
			}
			var tree *Tree
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i%fresh == 0 {
					b.StopTimer()
					var err error
					if tree, err = Build(specs[:n], ids[:n], Options{Budget: 10, Dynamic: true}); err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
				}
				if err := tree.Insert(specs[n+i%fresh], n+i%fresh); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
