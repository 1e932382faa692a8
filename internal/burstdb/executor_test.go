package burstdb

import (
	"math"
	"math/rand"
	"path/filepath"
	"slices"
	"sort"
	"testing"

	"repro/internal/burst"
)

// satAdd is base + off clamped to the int64 range.
func satAdd(base, off int64) int64 {
	switch {
	case off > 0 && base > math.MaxInt64-off:
		return math.MaxInt64
	case off < 0 && base < math.MinInt64-off:
		return math.MinInt64
	}
	return base + off
}

// checkOverlapPlans builds a random table from seed and checks every plan
// against the full scan on random query spans. The table has lengths
// 1 … 400 with a few long outliers and duplicate starts, its keys near 0
// (where%3 == 0), near the smallest int64 (1) or near the largest (2).
// flags bit 1 reloads the table from its dump; bit 2 adds a row spanning the
// whole int64 range; bit 0 is unused (checked-in seeds set it).
func checkOverlapPlans(t *testing.T, seed int64, where, flags uint8) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	base := []int64{-300, math.MinInt64, math.MaxInt64 - 6000}[where%3]
	db := New()
	var starts []int64
	for i, n := 0, 1+rng.Intn(300); i < n; i++ {
		start := base + int64(rng.Intn(1000))
		if len(starts) > 0 && rng.Intn(4) == 0 {
			start = starts[rng.Intn(len(starts))]
		}
		span := int64(rng.Intn(400))
		if rng.Intn(50) == 0 {
			span = 400 + int64(rng.Intn(4600))
		}
		if _, err := db.Insert(Record{SeqID: int64(rng.Intn(40)), Start: start, End: start + span, Avg: rng.NormFloat64()}); err != nil {
			t.Fatal(err)
		}
		starts = append(starts, start)
	}
	if flags&4 != 0 {
		if _, err := db.Insert(Record{SeqID: 41, Start: math.MinInt64, End: math.MaxInt64}); err != nil {
			t.Fatal(err)
		}
	}
	if flags&2 != 0 {
		path := filepath.Join(t.TempDir(), "bursts.bin")
		if err := db.Save(path); err != nil {
			t.Fatal(err)
		}
		loaded, err := Load(path)
		if err != nil {
			t.Fatal(err)
		}
		db = loaded
	}

	queries := [][2]int64{{math.MinInt64, math.MaxInt64}, {starts[0], starts[0]}}
	for i := 0; i < 12; i++ {
		qs := satAdd(base, int64(rng.Intn(2000)-500))
		queries = append(queries, [2]int64{qs, satAdd(qs, int64(rng.Intn(120)))})
	}
	for _, q := range queries {
		want, fst, err := db.Overlapping(q[0], q[1], PlanFullScan)
		if err != nil {
			t.Fatal(err)
		}
		if fst.RowsMatched != len(want) {
			t.Fatalf("query %v: full scan matched %d rows, returned %d", q, fst.RowsMatched, len(want))
		}
		scanned := map[Plan]int{}
		for _, plan := range []Plan{PlanIndexStart, PlanIndexEnd, PlanAuto} {
			got, st, err := db.Overlapping(q[0], q[1], plan)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got, want) || st.RowsMatched != len(want) {
				t.Fatalf("seed %d where %d flags %d, query %v: %v returned %d rows (matched %d), full scan %d",
					seed, where, flags, q, plan, len(got), st.RowsMatched, len(want))
			}
			// The full scan reads every row once: no index plan touches more.
			if st.RowsScanned > fst.RowsScanned {
				t.Fatalf("seed %d where %d flags %d, query %v: %v scanned %d rows, the table holds %d",
					seed, where, flags, q, plan, st.RowsScanned, fst.RowsScanned)
			}
			scanned[plan] = st.RowsScanned
		}
		if scanned[PlanAuto] > scanned[PlanIndexStart] {
			t.Fatalf("seed %d where %d flags %d, query %v: auto plan scanned %d rows, index(start) %d",
				seed, where, flags, q, scanned[PlanAuto], scanned[PlanIndexStart])
		}
	}
}

// Property: on random tables every plan returns the full scan's rows, no
// plan scans more rows than the table holds, and the auto plan never scans
// more rows than the start index's scan.
func TestPlanEquivalenceProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 60; i++ {
		checkOverlapPlans(t, rng.Int63(), uint8(i), uint8(i/3))
	}
}

// FuzzOverlapPlans is TestPlanEquivalenceProperty's check over fuzzed
// seeds, key placements and table histories.
func FuzzOverlapPlans(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(0))
	f.Add(int64(2), uint8(1), uint8(7))
	f.Add(int64(3), uint8(2), uint8(5))
	f.Fuzz(checkOverlapPlans)
}

// refQueryByBurst is the query-by-burst executor before the length-class
// index, kept as the reference: overlap rows in full-tuple order, candidate
// IDs sorted and compacted, each scored by burst.BSim over its BurstsOf,
// every match sorted. It also returns the rows matched and the candidates.
func refQueryByBurst(t *testing.T, db *DB, query []burst.Burst, k int, exclude int64) ([]Match, int, int) {
	t.Helper()
	var ids []int64
	matched := 0
	for _, q := range query {
		rows, st, err := db.Overlapping(int64(q.Start), int64(q.End), PlanFullScan)
		if err != nil {
			t.Fatal(err)
		}
		matched += st.RowsMatched
		for _, r := range rows {
			if r.SeqID != exclude {
				ids = append(ids, r.SeqID)
			}
		}
	}
	slices.Sort(ids)
	ids = slices.Compact(ids)
	var out []Match
	for _, id := range ids {
		if score := burst.BSim(query, db.BurstsOf(id)); score > 0 {
			out = append(out, Match{SeqID: id, Score: score})
		}
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].Score != out[b].Score {
			return out[a].Score > out[b].Score
		}
		return out[a].SeqID < out[b].SeqID
	})
	return out[:min(k, len(out))], matched, len(ids)
}

// randomBursts draws n bursts in [0, 1000) in no particular order, some
// overlapping, some sharing a start.
func randomBursts(rng *rand.Rand, n int) []burst.Burst {
	out := make([]burst.Burst, n)
	for i := range out {
		start := rng.Intn(1000)
		if i > 0 && rng.Intn(5) == 0 {
			start = out[rng.Intn(i)].Start
		}
		out[i] = burst.Burst{Start: start, End: start + rng.Intn(60), Avg: 1 + 2*rng.Float64()}
	}
	return out
}

// queryByBurst answers as the reference executor does, to the bit, on every
// plan, explained or not: random tables filled in shuffled sequence order,
// shuffled and overlapping query patterns, with and
// without an exclusion, for k of 1, 10 and every sequence.
func TestQueryByBurstMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		db := New()
		const seqs = 60
		for _, seq := range rng.Perm(seqs) {
			if _, err := db.InsertBursts(int64(seq), randomBursts(rng, rng.Intn(13))); err != nil {
				t.Fatal(err)
			}
		}
		for q := 0; q < 6; q++ {
			query := randomBursts(rng, 1+rng.Intn(6))
			if q%2 == 1 {
				query = db.BurstsOf(int64(rng.Intn(seqs)))
				rng.Shuffle(len(query), func(i, j int) { query[i], query[j] = query[j], query[i] })
			}
			exclude := int64(-1)
			if rng.Intn(2) == 0 {
				exclude = int64(rng.Intn(seqs))
			}
			for _, k := range []int{1, 10, seqs} {
				want, matched, candidates := refQueryByBurst(t, db, query, k, exclude)
				for _, plan := range []Plan{PlanAuto, PlanIndexStart, PlanIndexEnd, PlanFullScan} {
					for _, explain := range []bool{false, true} {
						var got []Match
						var st ScanStats
						var exp *QBBExplain
						var err error
						if explain {
							got, st, exp, _, err = db.QueryByBurstExplain(query, k, exclude, plan, nil)
						} else {
							got, st, err = db.QueryByBurst(query, k, exclude, plan)
						}
						if err != nil {
							t.Fatal(err)
						}
						if len(got) != len(want) || st.RowsMatched != matched {
							t.Fatalf("trial %d, k %d, %v, explain %v: %d matches over %d rows, reference %d over %d",
								trial, k, plan, explain, len(got), st.RowsMatched, len(want), matched)
						}
						for i := range got {
							if got[i].SeqID != want[i].SeqID || math.Float64bits(got[i].Score) != math.Float64bits(want[i].Score) {
								t.Fatalf("trial %d, k %d, %v, explain %v, rank %d: %+v, reference %+v",
									trial, k, plan, explain, i, got[i], want[i])
							}
						}
						if exp != nil && exp.Candidates != candidates {
							t.Fatalf("trial %d, %v: explain reports %d candidates, reference %d", trial, plan, exp.Candidates, candidates)
						}
					}
				}
			}
		}
	}
}

// bsim stops at the first burst of y starting after a query burst ends and
// must still sum exactly what burst.BSim sums.
func TestBSimEarlyStopIsBSim(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 2000; trial++ {
		x := randomBursts(rng, rng.Intn(10))
		y := randomBursts(rng, rng.Intn(15))
		slices.SortStableFunc(y, func(a, b burst.Burst) int { return a.Start - b.Start })
		if got, want := bsim(x, y), burst.BSim(x, y); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("trial %d: bsim %v, burst.BSim %v\nx = %v\ny = %v", trial, got, want, x, y)
		}
	}
}
