package burstdb

import (
	"testing"

	"repro/internal/burst"
)

// TestQueryByBurstExplain checks that the explained path returns identical
// matches/stats to the plain call and that the per-burst report accounts for
// every scan.
func TestQueryByBurstExplain(t *testing.T) {
	db := New()
	db.InsertBursts(1, []burst.Burst{{Start: 100, End: 120, Avg: 2.0}})
	db.InsertBursts(2, []burst.Burst{{Start: 105, End: 125, Avg: 1.9}})
	db.InsertBursts(3, []burst.Burst{{Start: 500, End: 520, Avg: 2.0}})

	q := []burst.Burst{
		{Start: 100, End: 120, Avg: 2.0},
		{Start: 510, End: 515, Avg: 1.5},
	}
	plain, pst, err := db.QueryByBurst(q, 10, -1, PlanAuto)
	if err != nil {
		t.Fatal(err)
	}
	matches, st, exp, _, err := db.QueryByBurstExplain(q, 10, -1, PlanAuto, nil)
	if err != nil {
		t.Fatal(err)
	}
	if exp == nil {
		t.Fatal("nil explain report")
	}
	if len(matches) != len(plain) {
		t.Fatalf("explained returned %d matches, plain %d", len(matches), len(plain))
	}
	for i := range matches {
		if matches[i] != plain[i] {
			t.Errorf("match %d: %v vs plain %v", i, matches[i], plain[i])
		}
	}
	if st != pst {
		t.Errorf("stats differ: %+v vs plain %+v", st, pst)
	}

	if len(exp.PerBurst) != len(q) {
		t.Fatalf("PerBurst has %d rows, want %d", len(exp.PerBurst), len(q))
	}
	var scanned, matched int
	for i, s := range exp.PerBurst {
		if s.QueryStart != int64(q[i].Start) || s.QueryEnd != int64(q[i].End) {
			t.Errorf("burst %d span %d..%d, want %d..%d",
				i, s.QueryStart, s.QueryEnd, q[i].Start, q[i].End)
		}
		if s.Plan == "" {
			t.Errorf("burst %d has no plan", i)
		}
		scanned += s.RowsScanned
		matched += s.RowsMatched
	}
	if scanned != st.RowsScanned || matched != st.RowsMatched {
		t.Errorf("per-burst sums %d/%d, aggregate %d/%d",
			scanned, matched, st.RowsScanned, st.RowsMatched)
	}
	// All three sequences overlap one of the query bursts.
	if exp.Candidates != 3 {
		t.Errorf("Candidates = %d, want 3", exp.Candidates)
	}
	if exp.Matches < len(matches) {
		t.Errorf("Matches = %d < returned %d", exp.Matches, len(matches))
	}

	// Forcing the index plans must surface B-tree probe counts.
	for _, plan := range []Plan{PlanIndexStart, PlanIndexEnd} {
		_, ist, iexp, _, err := db.QueryByBurstExplain(q, 10, -1, plan, nil)
		if err != nil {
			t.Fatal(err)
		}
		if iexp.BTreeProbes != ist.RowsScanned {
			t.Errorf("plan %v: BTreeProbes = %d, RowsScanned = %d",
				plan, iexp.BTreeProbes, ist.RowsScanned)
		}
		if iexp.BTreeProbes == 0 {
			t.Errorf("plan %v recorded no B-tree probes", plan)
		}
	}
	// A full scan probes no index.
	_, _, fexp, _, err := db.QueryByBurstExplain(q, 10, -1, PlanFullScan, nil)
	if err != nil {
		t.Fatal(err)
	}
	if fexp.BTreeProbes != 0 {
		t.Errorf("full scan BTreeProbes = %d, want 0", fexp.BTreeProbes)
	}
}
