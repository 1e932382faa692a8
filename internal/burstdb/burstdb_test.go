package burstdb

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/burst"
	"repro/internal/israce"
	"repro/internal/querylog"
)

// QueryByBurst is an ungated QueryByBurstLimited.
func (db *DB) QueryByBurst(query []burst.Burst, k int, exclude int64, plan Plan) ([]Match, ScanStats, error) {
	matches, st, _, err := db.QueryByBurstLimited(query, k, exclude, plan, nil)
	return matches, st, err
}

func TestInsertGetDelete(t *testing.T) {
	db := New()
	r := Record{SeqID: 7, Start: 10, End: 20, Avg: 1.5}
	rid, err := db.Insert(r)
	if err != nil {
		t.Fatal(err)
	}
	if db.Len() != 1 || db.Sequences() != 1 {
		t.Fatalf("Len/Sequences = %d/%d", db.Len(), db.Sequences())
	}
	// A second row of the same sequence is a second row, not a second
	// sequence; row IDs count up from 0 in insertion order.
	r2 := Record{SeqID: 7, Start: 2, End: 4, Avg: 0.5}
	rid2, err := db.Insert(r2)
	if err != nil {
		t.Fatal(err)
	}
	if rid != 0 || rid2 != 1 || db.Len() != 2 || db.Sequences() != 1 {
		t.Fatalf("rids %d, %d; Len/Sequences = %d/%d", rid, rid2, db.Len(), db.Sequences())
	}
	var got []Record
	db.ScanAll(func(id int64, rec Record) bool {
		if id != int64(len(got)) {
			t.Errorf("ScanAll visited rid %d at position %d", id, len(got))
		}
		got = append(got, rec)
		return true
	})
	if len(got) != 2 || got[0] != r || got[1] != r2 {
		t.Fatalf("ScanAll = %v", got)
	}
	if lo, hi, ok := db.KeySpan(); !ok || lo != 2 || hi != 20 {
		t.Fatalf("KeySpan = %d, %d, %v", lo, hi, ok)
	}
}

func TestBurstsOfOrdering(t *testing.T) {
	db := New()
	db.InsertBursts(3, []burst.Burst{
		{Start: 50, End: 60, Avg: 2},
		{Start: 10, End: 20, Avg: 1},
	})
	bs := db.BurstsOf(3)
	if len(bs) != 2 || bs[0].Start != 10 || bs[1].Start != 50 {
		t.Errorf("BurstsOf = %v", bs)
	}
	if got := db.BurstsOf(99); len(got) != 0 {
		t.Errorf("BurstsOf(unknown) = %v", got)
	}
}

func TestOverlappingBasic(t *testing.T) {
	db := New()
	db.Insert(Record{SeqID: 1, Start: 0, End: 10})
	db.Insert(Record{SeqID: 2, Start: 5, End: 15})
	db.Insert(Record{SeqID: 3, Start: 20, End: 30})
	db.Insert(Record{SeqID: 4, Start: 11, End: 12})

	for _, plan := range []Plan{PlanIndexStart, PlanIndexEnd, PlanFullScan, PlanAuto} {
		rows, st, err := db.Overlapping(8, 11, plan)
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != 3 {
			t.Fatalf("plan %v: %d rows, want 3 (%v)", plan, len(rows), rows)
		}
		ids := []int64{rows[0].SeqID, rows[1].SeqID, rows[2].SeqID}
		if ids[0] != 1 || ids[1] != 2 || ids[2] != 4 {
			t.Errorf("plan %v: ids %v", plan, ids)
		}
		if st.RowsMatched != 3 || st.RowsScanned < 3 {
			t.Errorf("plan %v: stats %+v", plan, st)
		}
	}
	if _, _, err := db.Overlapping(10, 5, PlanAuto); err != ErrBadRange {
		t.Error("expected ErrBadRange")
	}
	if _, _, err := db.Overlapping(0, 1, Plan(99)); err == nil {
		t.Error("expected unknown-plan error")
	}
}

// The auto plan bounds its scan on both sides, so on a table clustered
// early in the timeline it touches no more rows than the cheaper one-sided
// fig. 18 plan, at either end of the span.
func TestAutoPlanPicksCheaperSide(t *testing.T) {
	db := New()
	for i := int64(0); i < 100; i++ {
		db.Insert(Record{SeqID: i, Start: i, End: i + 5})
	}
	db.Insert(Record{SeqID: 1000, Start: 900, End: 910})
	for _, q := range [][2]int64{{895, 905}, {0, 3}} {
		scanned := func(plan Plan) int {
			_, st, err := db.Overlapping(q[0], q[1], plan)
			if err != nil {
				t.Fatal(err)
			}
			if st.Plan != plan {
				t.Errorf("ran %v, asked for %v", st.Plan, plan)
			}
			return st.RowsScanned
		}
		auto := scanned(PlanAuto)
		cheaper := min(scanned(PlanIndexStart), scanned(PlanIndexEnd))
		if auto > cheaper {
			t.Errorf("query %v: auto plan scanned %d rows, the cheaper one-sided plan %d", q, auto, cheaper)
		}
	}
}

func TestQueryByBurst(t *testing.T) {
	db := New()
	// Seq 1: burst at [100,120]; seq 2: burst at [105,125]; seq 3 far away.
	db.InsertBursts(1, []burst.Burst{{Start: 100, End: 120, Avg: 2.0}})
	db.InsertBursts(2, []burst.Burst{{Start: 105, End: 125, Avg: 1.9}})
	db.InsertBursts(3, []burst.Burst{{Start: 500, End: 520, Avg: 2.0}})

	q := []burst.Burst{{Start: 100, End: 120, Avg: 2.0}}
	matches, st, err := db.QueryByBurst(q, 10, -1, PlanAuto)
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) != 2 {
		t.Fatalf("matches = %v", matches)
	}
	if matches[0].SeqID != 1 || matches[1].SeqID != 2 {
		t.Errorf("ranking wrong: %v", matches)
	}
	if matches[0].Score <= matches[1].Score {
		t.Errorf("scores not descending: %v", matches)
	}
	if st.RowsScanned == 0 {
		t.Error("stats not collected")
	}

	// Excluding the top match drops it.
	matches, _, err = db.QueryByBurst(q, 10, 1, PlanAuto)
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) != 1 || matches[0].SeqID != 2 {
		t.Errorf("exclude failed: %v", matches)
	}

	// k truncation.
	matches, _, err = db.QueryByBurst(q, 1, -1, PlanAuto)
	if err != nil || len(matches) != 1 {
		t.Errorf("k=1: %v %v", matches, err)
	}
	if _, _, err := db.QueryByBurst(q, 0, -1, PlanAuto); err == nil {
		t.Error("expected error for k=0")
	}
}

// qbbRef is query-by-burst by definition: every sequence with an
// overlapping burst, scored against a freshly built burst set, best first.
func qbbRef(db *DB, query []burst.Burst, k int, exclude int64) []Match {
	var out []Match
	for seqID := int64(0); seqID < 400; seqID++ {
		if seqID == exclude {
			continue
		}
		bs := db.BurstsOf(seqID)
		overlaps := false
		for _, q := range query {
			for _, b := range bs {
				overlaps = overlaps || (b.Start <= q.End && b.End >= q.Start)
			}
		}
		if score := burst.BSim(query, bs); overlaps && score > 0 {
			out = append(out, Match{SeqID: seqID, Score: score})
		}
	}
	sort.SliceStable(out, func(a, b int) bool { return out[a].Score > out[b].Score })
	return out[:min(k, len(out))]
}

// The ranking loop scores every candidate through pooled buffers. A query
// that follows a much larger one — more overlapping rows, more candidates,
// longer burst sets — must answer exactly as the definition does, and a
// steady-state query allocates only its answer, not per candidate.
func TestQueryByBurstPooledScratchIsClean(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	db := New()
	for seq := int64(0); seq < 400; seq++ {
		var bs []burst.Burst
		for start := rng.Intn(40); start < 1000; start += 30 + rng.Intn(200) {
			bs = append(bs, burst.Burst{Start: start, End: start + 3 + rng.Intn(25), Avg: 1 + rng.Float64()})
		}
		db.InsertBursts(seq, bs)
	}
	wide := db.BurstsOf(7)
	narrow := []burst.Burst{{Start: 300, End: 302, Avg: 1.5}}
	check := func(name string, query []burst.Burst, k int, exclude int64) {
		t.Helper()
		got, _, err := db.QueryByBurst(query, k, exclude, PlanAuto)
		if err != nil {
			t.Fatal(err)
		}
		want := qbbRef(db, query, k, exclude)
		if len(got) != len(want) || len(got) == 0 {
			t.Fatalf("%s: %d matches, definition %d", name, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s rank %d: %+v, definition %+v", name, i, got[i], want[i])
			}
		}
	}
	check("narrow, first", narrow, 5, -1)
	check("wide", wide, 400, 7)
	check("narrow, after wide", narrow, 5, -1)

	if israce.Enabled {
		return // sync.Pool drops Puts at random under the race detector
	}
	for _, k := range []int{1, 10, 400} {
		if allocs := testing.AllocsPerRun(20, func() {
			if _, _, err := db.QueryByBurst(wide, k, 7, PlanAuto); err != nil {
				t.Fatal(err)
			}
		}); allocs > 1 {
			t.Errorf("k = %d: QueryByBurst over hundreds of candidates allocates %.0f objects, want only its answer", k, allocs)
		}
	}
}

// End-to-end on the generated archetypes: seasonal queries with bursts in
// the same part of the year should retrieve each other, not distant ones.
func TestQueryByBurstOnQueryLogs(t *testing.T) {
	g := querylog.New(9)
	db := New()
	names := []string{querylog.Halloween, querylog.Christmas, querylog.Easter,
		querylog.Thanksgiving, querylog.Flowers, querylog.ValentinesDay}
	byID := map[int64]string{}
	var halloweenBursts []burst.Burst
	for i, name := range names {
		s := g.Exemplar(name)
		d, err := burst.DetectStandardized(s.Values, burst.LongWindow, 1.5)
		if err != nil {
			t.Fatal(err)
		}
		if len(d.Bursts) == 0 {
			t.Fatalf("%s: no bursts", name)
		}
		db.InsertBursts(int64(i), d.Bursts)
		byID[int64(i)] = name
		if name == querylog.Halloween {
			halloweenBursts = d.Bursts
		}
	}
	matches, _, err := db.QueryByBurst(halloweenBursts, 3, 0, PlanAuto)
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) == 0 {
		t.Fatal("no query-by-burst matches for halloween")
	}
	// Halloween (late Oct–Nov) should match thanksgiving/christmas-season
	// queries, never valentines or easter.
	top := byID[matches[0].SeqID]
	if top == querylog.ValentinesDay || top == querylog.Flowers {
		t.Errorf("halloween top match = %s", top)
	}
}

func TestStringers(t *testing.T) {
	if (Record{SeqID: 1, Start: 2, End: 3, Avg: 0.5}).String() == "" {
		t.Error("Record String empty")
	}
	for _, p := range []Plan{PlanAuto, PlanIndexStart, PlanIndexEnd, PlanFullScan, Plan(42)} {
		if p.String() == "" {
			t.Error("Plan String empty")
		}
	}
}

func BenchmarkOverlappingIndexVsScan(b *testing.B) {
	db := New()
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20000; i++ {
		s := int64(rng.Intn(100000))
		db.Insert(Record{SeqID: int64(i), Start: s, End: s + int64(rng.Intn(40))})
	}
	b.Run("index", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := db.Overlapping(50, 300, PlanAuto); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("fullscan", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := db.Overlapping(50, 300, PlanFullScan); err != nil {
				b.Fatal(err)
			}
		}
	})
}
