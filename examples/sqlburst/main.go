// Sqlburst: the paper's §6.3 execution path end-to-end — burst features
// extracted from a query-log dataset are stored in the relational burst
// table and queried with the actual SQL of fig. 18 (here against an
// embedded table with B-tree indexes instead of SQL Server). The example
// also round-trips the dataset through CSV to show the external-data path.
//
//	go run ./examples/sqlburst
package main

import (
	"bytes"
	"fmt"
	"log"
	"strconv"

	"repro/internal/burst"
	"repro/internal/burstdb"
	"repro/internal/minisql"
	"repro/internal/querylog"
)

func main() {
	// 1. Generate a dataset and round-trip it through CSV — the same
	//    format cmd/genlog emits and real exports would use.
	g := querylog.New(5)
	original := append(g.Exemplars(), g.Dataset(60)...)
	var csv bytes.Buffer
	for _, s := range original {
		csv.WriteString(s.Name)
		for _, v := range s.Values {
			csv.WriteByte(',')
			csv.WriteString(strconv.FormatFloat(v, 'g', -1, 64))
		}
		csv.WriteByte('\n')
	}
	csvBytes := csv.Len()
	data, err := querylog.LoadCSV(&csv, querylog.DefaultStart)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("loaded %d series from CSV (%d bytes)\n\n", len(data), csvBytes)

	// 2. Extract long-term burst features into the relational store.
	db := burstdb.New()
	names := map[int64]string{}
	for _, s := range data {
		det, err := burst.DetectStandardized(s.Values, burst.LongWindow, burst.DefaultCutoff)
		if err != nil {
			log.Fatal(err)
		}
		if _, err := db.InsertBursts(int64(s.ID), det.Bursts); err != nil {
			log.Fatal(err)
		}
		names[int64(s.ID)] = s.Name
	}
	fmt.Printf("burst table: %d rows over %d sequences\n\n", db.Len(), db.Sequences())

	// 3. The fig. 18 query: which bursts overlap late October 2000
	//    (days 290..310 from 2000-01-01)? This is exactly
	//    "B.startDate < Q.endDate AND B.endDate > Q.startDate".
	queries := []string{
		"SELECT * FROM bursts WHERE startDate < 310 AND endDate > 290 ORDER BY avgValue DESC LIMIT 8",
		"SELECT seqid, avgvalue FROM bursts WHERE avgValue >= 2 ORDER BY avgValue DESC LIMIT 5",
		"SELECT * FROM bursts WHERE startDate >= 640 AND startDate <= 680",
	}
	for _, stmt := range queries {
		fmt.Printf("sql> %s\n", stmt)
		res, err := minisql.Run(db, stmt)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  plan: %v\n  scanned %d rows, matched %d\n",
			res.Plan, res.Scanned, len(res.Records))
		for _, r := range res.Records {
			fmt.Printf("  %-24s start=%4d end=%4d avg=%.2f\n",
				names[r.SeqID], r.Start, r.End, r.Avg)
		}
		fmt.Println()
	}
}
