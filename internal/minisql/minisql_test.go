package minisql

import (
	"math/rand"
	"strconv"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/burstdb"
)

func testDB(tb testing.TB) *burstdb.DB {
	db := burstdb.New()
	insert(tb, db,
		burstdb.Record{SeqID: 1, Start: 0, End: 10, Avg: 1.0},
		burstdb.Record{SeqID: 2, Start: 5, End: 15, Avg: 2.0},
		burstdb.Record{SeqID: 3, Start: 20, End: 30, Avg: 0.5},
		burstdb.Record{SeqID: 4, Start: 25, End: 40, Avg: 3.0},
		burstdb.Record{SeqID: 5, Start: 100, End: 120, Avg: 1.5})
	return db
}

// insert adds rows to db, failing the test on a row the table refuses.
func insert(tb testing.TB, db *burstdb.DB, rows ...burstdb.Record) {
	tb.Helper()
	for _, r := range rows {
		if _, err := db.Insert(r); err != nil {
			tb.Fatal(err)
		}
	}
}

func TestParseBasics(t *testing.T) {
	q, err := parse("SELECT * FROM bursts")
	if err != nil {
		t.Fatal(err)
	}
	if q.Columns != nil || len(q.Where) != 0 || q.HasOrder || q.HasLimit {
		t.Errorf("bare select parsed wrong: %+v", q)
	}

	q, err = parse("select seqid, avgvalue from bursts where startdate < 26 and enddate > 9 order by avgvalue desc limit 2")
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Columns) != 2 || q.Columns[0] != ColSeqID || q.Columns[1] != ColAvg {
		t.Errorf("projection: %v", q.Columns)
	}
	if len(q.Where) != 2 || q.Where[0].Col != ColStart || q.Where[0].Op != OpLT ||
		q.Where[0].Value != 26 {
		t.Errorf("where: %v", q.Where)
	}
	if !q.HasOrder || q.OrderBy != ColAvg || !q.Desc {
		t.Errorf("order: %+v", q)
	}
	if !q.HasLimit || q.Limit != 2 {
		t.Errorf("limit: %+v", q)
	}
}

func TestParsePaperFig18(t *testing.T) {
	// The paper's query, with table-qualified columns.
	q, err := parse("SELECT * FROM Database WHERE B.startDate < 26 AND B.endDate > 9")
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Where) != 2 {
		t.Fatalf("where: %v", q.Where)
	}
	if q.Where[0].Col != ColStart || q.Where[1].Col != ColEnd {
		t.Errorf("columns: %v", q.Where)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"UPDATE bursts",
		"SELECT",
		"SELECT * FROM",
		"SELECT nosuchcol FROM bursts",
		"SELECT * FROM bursts WHERE",
		"SELECT * FROM bursts WHERE startdate",
		"SELECT * FROM bursts WHERE startdate !! 3",
		"SELECT * FROM bursts WHERE startdate < abc",
		"SELECT * FROM bursts LIMIT x",
		"SELECT * FROM bursts LIMIT -1",
		"SELECT * FROM bursts ORDER startdate",
		"SELECT * FROM bursts ORDER BY 3",
		"SELECT * FROM bursts EXTRA",
		"SELECT * FROM bursts WHERE startdate < 3 AND",
		"SELECT *, FROM bursts",
		"SELECT * FROM bursts WHERE startdate < 3 ; drop",
	}
	for _, s := range bad {
		if _, err := parse(s); err == nil {
			t.Errorf("expected parse error for %q", s)
		}
	}
}

func TestSyntaxErrorMessage(t *testing.T) {
	_, err := parse("SELECT ? FROM bursts")
	se, ok := err.(*SyntaxError)
	if !ok {
		t.Fatalf("want *SyntaxError, got %T", err)
	}
	if se.Pos != 7 || !strings.Contains(se.Error(), "position 7") {
		t.Errorf("pos = %d, msg = %q", se.Pos, se.Error())
	}
}

func TestExecOverlapQuery(t *testing.T) {
	db := testDB(t)
	// The fig. 18 overlap query for Q = [9, 25]:
	// start < 26 AND end > 9 → rows 1, 2, 3, 4.
	res, err := Run(db, "SELECT * FROM bursts WHERE startDate < 26 AND endDate > 9")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != 4 {
		t.Fatalf("got %d rows: %v", len(res.Records), res.Records)
	}
	// The reference executor agrees.
	want, _, err := db.Overlapping(10, 25, burstdb.PlanFullScan)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != len(res.Records) {
		t.Errorf("minisql %d rows vs burstdb %d", len(res.Records), len(want))
	}
	if res.Plan.Access == AccessFullScan {
		t.Errorf("expected an index plan, got %v", res.Plan)
	}
	if res.Scanned == 0 || res.Scanned > db.Len() {
		t.Errorf("scanned %d", res.Scanned)
	}
}

func TestExecProjectionOrderLimit(t *testing.T) {
	db := testDB(t)
	res, err := Run(db, "SELECT seqid, avgvalue FROM bursts ORDER BY avgvalue DESC LIMIT 3")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != 3 {
		t.Fatalf("%d rows", len(res.Records))
	}
	if res.Records[0].SeqID != 4 || res.Records[1].SeqID != 2 {
		t.Errorf("order wrong: %v", res.Records)
	}
	if len(res.Columns) != 2 || res.Columns[0] != ColSeqID || res.Columns[1] != ColAvg {
		t.Errorf("projection: %v", res.Columns)
	}
	if res.Records[0].Avg != 3.0 {
		t.Errorf("top avgvalue = %v, want 3", res.Records[0].Avg)
	}
}

func TestExecLimitWithoutOrderStopsEarly(t *testing.T) {
	db := burstdb.New()
	for i := int64(0); i < 1000; i++ {
		insert(t, db, burstdb.Record{SeqID: i, Start: i, End: i + 5})
	}
	res, err := Run(db, "SELECT * FROM bursts LIMIT 3")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != 3 {
		t.Fatalf("%d rows", len(res.Records))
	}
	if res.Scanned > 10 {
		t.Errorf("scanned %d rows for LIMIT 3 without ORDER BY", res.Scanned)
	}
}

func TestExecEqualityAndNE(t *testing.T) {
	db := testDB(t)
	res, err := Run(db, "SELECT * FROM bursts WHERE startdate = 20")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != 1 || res.Records[0].SeqID != 3 {
		t.Errorf("eq: %v", res.Records)
	}
	res, err = Run(db, "SELECT * FROM bursts WHERE seqid <> 3")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != 4 {
		t.Errorf("ne: %v", res.Records)
	}
	// Non-integer equality on an int column matches nothing.
	res, err = Run(db, "SELECT * FROM bursts WHERE startdate = 20.5")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != 0 {
		t.Errorf("fractional eq matched: %v", res.Records)
	}
}

func TestExecEmptyTable(t *testing.T) {
	db := burstdb.New()
	res, err := Run(db, "SELECT * FROM bursts WHERE startdate < 10")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != 0 || res.Plan.Access != AccessFullScan {
		t.Errorf("empty table: %+v", res)
	}
}

// Property: for random tables and random conjunctive queries, the planner's
// output equals a naive filter of all rows.
func TestExecMatchesNaiveProperty(t *testing.T) {
	cols := []string{"seqid", "startdate", "enddate", "avgvalue"}
	ops := []string{"<", "<=", ">", ">=", "=", "<>"}
	// Literals beyond every key, some beyond int64's range.
	extremes := []string{"1e19", "-1e19", "9223372036854775807", "-9223372036854775808", "4e18"}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		db := burstdb.New()
		var all []burstdb.Record
		n := 20 + rng.Intn(200)
		for i := 0; i < n; i++ {
			s := int64(rng.Intn(300))
			r := burstdb.Record{
				SeqID: int64(rng.Intn(40)),
				Start: s,
				End:   s + int64(rng.Intn(40)),
				Avg:   float64(rng.Intn(8)) / 2,
			}
			insert(t, db, r)
			all = append(all, r)
		}
		agrees := func(query string, preds []Predicate) bool {
			res, err := Run(db, query)
			if err != nil {
				t.Logf("query %q: %v", query, err)
				return false
			}
			naive := 0
			for _, r := range all {
				ok := true
				for _, p := range preds {
					if !p.matches(r) {
						ok = false
						break
					}
				}
				if ok {
					naive++
				}
			}
			if len(res.Records) != naive {
				t.Logf("query %q: exec %d rows, naive %d (plan %v)",
					query, len(res.Records), naive, res.Plan)
				return false
			}
			return true
		}
		for trial := 0; trial < 10; trial++ {
			var sb strings.Builder
			sb.WriteString("SELECT * FROM bursts")
			nPred := rng.Intn(4)
			var preds []Predicate
			for i := 0; i < nPred; i++ {
				if i == 0 {
					sb.WriteString(" WHERE ")
				} else {
					sb.WriteString(" AND ")
				}
				c := rng.Intn(4)
				o := rng.Intn(6)
				v := float64(rng.Intn(320))
				sb.WriteString(cols[c])
				sb.WriteByte(' ')
				sb.WriteString(ops[o])
				sb.WriteByte(' ')
				sb.WriteString(strconv.Itoa(int(v)))
				preds = append(preds, Predicate{Col: Column(c), Op: Op(o), Value: v})
			}
			if !agrees(sb.String(), preds) {
				return false
			}
		}
		for c, col := range cols {
			for o, op := range ops {
				for _, lit := range extremes {
					v, _ := strconv.ParseFloat(lit, 64)
					if !agrees("SELECT * FROM bursts WHERE "+col+" "+op+" "+lit, []Predicate{{Col: Column(c), Op: Op(o), Value: v}}) {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestPlanString(t *testing.T) {
	p := Plan{Access: AccessIndexStart, Lo: 1, Hi: 9,
		Residual: []Predicate{{Col: ColStart, Op: OpLT, Value: 10}}}
	s := p.String()
	if !strings.Contains(s, "startDate") || !strings.Contains(s, "filter") {
		t.Errorf("plan string: %q", s)
	}
	if AccessFullScan.String() == "" || Access(9).String() == "" {
		t.Error("Access String broken")
	}
}

func BenchmarkRunOverlap(b *testing.B) {
	db := burstdb.New()
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20000; i++ {
		s := int64(rng.Intn(100000))
		insert(b, db, burstdb.Record{SeqID: int64(i), Start: s, End: s + int64(rng.Intn(40))})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(db, "SELECT * FROM bursts WHERE startdate < 600 AND enddate > 400"); err != nil {
			b.Fatal(err)
		}
	}
}
