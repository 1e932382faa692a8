package minisql

import (
	"testing"

	"repro/internal/burstdb"
)

// FuzzParse hammers the SQL front end: parse must never panic, and any
// statement it accepts must execute without panicking and agree with a
// naive filter.
func FuzzParse(f *testing.F) {
	seeds := []string{
		"SELECT * FROM bursts",
		"SELECT * FROM Database WHERE B.startDate < 26 AND B.endDate > 9",
		"select seqid, avgvalue from bursts where avgvalue >= 1.5 order by avgvalue desc limit 3",
		"SELECT startdate FROM t WHERE enddate <> 7",
		"SELECT * FROM bursts WHERE startdate = 20.5",
		"SELECT * FROM bursts LIMIT 0",
		"SELECT",
		"囲碁 SELECT * FROM",
		"SELECT * FROM bursts WHERE startdate < -9e99 AND enddate > 1e308",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	db := burstdb.New()
	var all []burstdb.Record
	for i := int64(0); i < 50; i++ {
		r := burstdb.Record{SeqID: i % 7, Start: i * 3, End: i*3 + 10, Avg: float64(i%5) / 2}
		insert(f, db, r)
		all = append(all, r)
	}
	f.Fuzz(func(t *testing.T, input string) {
		q, err := parse(input)
		if err != nil {
			return // rejection is fine; panics are not
		}
		res, err := exec(db, q)
		if err != nil {
			t.Fatalf("accepted statement failed to execute: %q: %v", input, err)
		}
		// Cross-check against a naive filter when there is no LIMIT (LIMIT
		// legitimately truncates).
		if q.HasLimit {
			return
		}
		naive := 0
		for _, r := range all {
			ok := true
			for _, p := range q.Where {
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
			t.Fatalf("statement %q: exec %d rows, naive %d", input, len(res.Records), naive)
		}
	})
}
