// Quickstart: build an engine over a small synthetic query-log database and
// run one of each query type the system supports — similarity search,
// period discovery, burst detection and query-by-burst.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/querylog"
)

func main() {
	// 1. Generate a database: the paper's exemplar queries ("cinema",
	//    "easter", "elvis", ...) plus 100 background series, 1024 daily
	//    observations each (2000-2002).
	g := querylog.New(42)
	data := append(g.Exemplars(), g.Dataset(100)...)

	// 2. Build the engine. The zero config uses the paper defaults:
	//    BestMinError compression at budget c=16 (2*16+1 doubles per
	//    sequence), scanned in sequence-ID order by fig. 11's search, and
	//    7/30-day burst databases.
	engine, err := core.NewEngine(data, core.Config{})
	if err != nil {
		log.Fatal(err)
	}
	defer engine.Close()
	fmt.Printf("indexed %d series of %d days\n\n", engine.Len(), engine.SeqLen())

	// 3. Similarity search: which queries have demand patterns like
	//    "cinema" (weekly moviegoing peaks)?
	id, _ := engine.Lookup(querylog.Cinema)
	ctx := context.Background()
	resp, err := engine.Query(ctx, core.Request{Kind: core.KindSimilarID, ID: id, K: 3})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("queries similar to 'cinema':")
	for _, n := range resp.Neighbors {
		fmt.Printf("  %-22s dist=%.2f\n", n.Name, n.Dist)
	}
	fmt.Printf("  (index examined %d of %d full sequences)\n\n",
		resp.Stats.FullRetrievals, engine.Len())

	// 4. Period discovery: the weekly rhythm should stand out.
	det, err := engine.PeriodsOf(id)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("significant periods of 'cinema':")
	for i, p := range det.Top(3) {
		fmt.Printf("  P%d = %.2f days\n", i+1, p.Length)
	}
	fmt.Println()

	// 5. Burst detection on "easter": demand accumulates toward the moving
	//    holiday and collapses right after it, in every year.
	eid, _ := engine.Lookup(querylog.Easter)
	s, _ := engine.Series(eid)
	bursts, err := engine.Bursts(s.Values, core.Long)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("long-term bursts of 'easter':")
	for _, b := range bursts.Bursts {
		fmt.Printf("  %s .. %s (avg %.2f)\n",
			s.DateOf(b.Start).Format("2006-01-02"),
			s.DateOf(b.End).Format("2006-01-02"), b.Avg)
	}
	fmt.Println()

	// 6. Query-by-burst: which queries burst when "halloween" does?
	hid, _ := engine.Lookup(querylog.Halloween)
	resp, err = engine.Query(ctx, core.Request{Kind: core.KindBurstID, ID: hid, K: 3, Window: core.Long})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("burst patterns similar to 'halloween':")
	for _, m := range resp.Matches {
		fmt.Printf("  %-22s BSim=%.3f\n", m.Name, m.Score)
	}
}
