// Recommend: the paper's first motivating application (§1) — keyword
// recommendation by demand-pattern similarity. For each probe query the
// engine retrieves the semantically related terms, i.e. the ones users
// request on the same rhythm, and compares the index's work against the
// naive linear scan.
//
//	go run ./examples/recommend
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"repro/internal/core"
	"repro/internal/querylog"
)

func main() {
	// A larger database so the recommendations have material to draw from:
	// every archetype is represented dozens of times with jittered
	// parameters (different amplitudes, phases, noise levels).
	g := querylog.New(7)
	data := append(g.Exemplars(), g.Dataset(600)...)
	engine, err := core.NewEngine(data, core.Config{Budget: 24})
	if err != nil {
		log.Fatal(err)
	}
	defer engine.Close()
	fmt.Printf("database: %d query terms\n\n", engine.Len())

	probes := []string{
		querylog.Cinema,    // weekend-peaked
		querylog.FullMoon,  // lunar-month rhythm
		querylog.Christmas, // seasonal accumulation
		querylog.Elvis,     // anniversary spikes
	}
	ctx := context.Background()
	for _, probe := range probes {
		id, ok := engine.Lookup(probe)
		if !ok {
			log.Fatalf("probe %q missing", probe)
		}

		start := time.Now()
		resp, err := engine.Query(ctx, core.Request{Kind: core.KindSimilarID, ID: id, K: 5})
		if err != nil {
			log.Fatal(err)
		}
		indexTime := time.Since(start)
		recs, stats := resp.Neighbors, resp.Stats

		s, _ := engine.Series(id)
		start = time.Now()
		// The scan searches by values, so its answer includes the probe itself.
		scan, err := engine.Query(ctx, core.Request{Kind: core.KindLinear, Values: s.Values, K: 6})
		if err != nil {
			log.Fatal(err)
		}
		scanTime := time.Since(start)
		lin := scan.Neighbors

		fmt.Printf("users searching %q also search:\n", probe)
		for i, r := range recs {
			fmt.Printf("  %d. %-24s (dist %.2f)\n", i+1, r.Name, r.Dist)
		}
		fmt.Printf("  index: %v, examined %d/%d full sequences; linear scan: %v\n",
			indexTime.Round(time.Microsecond), stats.FullRetrievals,
			engine.Len(), scanTime.Round(time.Microsecond))

		// Cross-check: the index's top answer equals the scan's best
		// non-self answer.
		best := lin[0]
		if best.ID == id && len(lin) > 1 {
			best = lin[1]
		}
		if len(recs) > 0 && recs[0].ID != best.ID {
			fmt.Printf("  WARNING: index top %q differs from scan top %q\n",
				recs[0].Name, best.Name)
		}
		fmt.Println()
	}
}
