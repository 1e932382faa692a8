// Monitor: the online deployment the paper motivates — a live search
// service consuming one day of query counts at a time and flagging bursts
// as they develop, instead of re-scanning history. The example replays
// three years of the "easter" and "world trade center" demand curves
// through the incremental detector and prints burst boundaries the day
// they are detected, then checks the sliding-window period tracker on
// "cinema".
//
//	go run ./examples/monitor
package main

import (
	"fmt"
	"log"

	"repro/internal/burst"
	"repro/internal/periods"
	"repro/internal/querylog"
)

func main() {
	g := querylog.New(13)

	for _, name := range []string{querylog.Easter, querylog.WorldTradeCenter} {
		s := g.Exemplar(name)
		det, err := NewBurstDetector(burst.LongWindow, burst.DefaultCutoff)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("live burst monitor for %q:\n", name)
		for day, v := range s.Values {
			for _, e := range det.Push(v) {
				date := s.DateOf(e.Day).Format("2006-01-02")
				switch e.Kind {
				case BurstOpen:
					fmt.Printf("  %s  burst OPEN\n", date)
				case BurstClose:
					fmt.Printf("  %s  burst CLOSED: %s .. %s (avg %.1f)\n",
						date,
						s.DateOf(e.Burst.Start).Format("2006-01-02"),
						s.DateOf(e.Burst.End).Format("2006-01-02"),
						e.Burst.Avg)
				}
			}
			_ = day
		}
		for _, e := range det.Flush() {
			fmt.Printf("  (stream end) burst closed: %s .. %s\n",
				s.DateOf(e.Burst.Start).Format("2006-01-02"),
				s.DateOf(e.Burst.End).Format("2006-01-02"))
		}
		fmt.Println()
	}

	// Sliding-window periodicity: after each quarter, what rhythm does the
	// last year of "cinema" show?
	s := g.Exemplar(querylog.Cinema)
	tracker, err := NewPeriodTracker(364)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("sliding-window period tracking for \"cinema\" (last 364 days):")
	for day, v := range s.Values {
		tracker.Push(v)
		if !tracker.Ready() || (day+1)%91 != 0 {
			continue
		}
		det, err := tracker.Detect(periods.DefaultConfidence)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  as of %s:", s.DateOf(day).Format("2006-01-02"))
		for i, p := range det.Top(2) {
			fmt.Printf("  P%d=%.2f", i+1, p.Length)
		}
		fmt.Println()
	}
}
