// Newsburst: the paper's second motivating application (§1) — discovery of
// important news events as demand bursts, and 'query-by-burst' retrieval of
// queries that spiked together (§6, fig. 19). The example scans a database
// for one-shot bursts, ranks the most intense events, and for each event
// finds the co-bursting queries through the indexed burst store.
//
//	go run ./examples/newsburst
package main

import (
	"context"
	"fmt"
	"log"
	"sort"

	"repro/internal/burst"
	"repro/internal/core"
	"repro/internal/querylog"
)

func main() {
	g := querylog.New(11)
	data := append(g.Exemplars(), g.Dataset(300)...)
	engine, err := core.NewEngine(data, core.Config{})
	if err != nil {
		log.Fatal(err)
	}
	defer engine.Close()

	// Rank every stored short-term burst by intensity (average standardized
	// value): the strongest ones are the "important news" candidates.
	type event struct {
		id int
		b  burst.Burst
	}
	var events []event
	for id := 0; id < engine.Len(); id++ {
		for _, b := range engine.BurstsOf(id, core.Short) {
			events = append(events, event{id: id, b: b})
		}
	}
	sort.Slice(events, func(a, b int) bool { return events[a].b.Avg > events[b].b.Avg })

	fmt.Println("strongest demand bursts in the database (short-term window):")
	shown := 0
	seen := map[int]bool{}
	for _, ev := range events {
		if seen[ev.id] {
			continue // one event per query term
		}
		seen[ev.id] = true
		s, _ := engine.Series(ev.id)
		fmt.Printf("  %-24s %s .. %s  intensity %.2f\n",
			engine.Name(ev.id),
			s.DateOf(ev.b.Start).Format("2006-01-02"),
			s.DateOf(ev.b.End).Format("2006-01-02"),
			ev.b.Avg)
		shown++
		if shown == 8 {
			break
		}
	}
	fmt.Println()

	// Fig. 19: for the news queries, retrieve the co-bursting terms.
	for _, probe := range []string{querylog.WorldTradeCenter, querylog.Hurricane, querylog.Christmas} {
		id, ok := engine.Lookup(probe)
		if !ok {
			continue
		}
		resp, err := engine.Query(context.Background(), core.Request{Kind: core.KindBurstID, ID: id, K: 4, Window: core.Long})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("query-by-burst %q:\n", probe)
		for _, m := range resp.Matches {
			fmt.Printf("  %-24s BSim=%.3f\n", m.Name, m.Score)
		}
		fmt.Println()
	}
}
