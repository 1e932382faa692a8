package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around the
// call (never inside the program). Spans of one request share Request;
// Parent is the ID of the span one nesting level up (0 = a root).
//
// The nesting levels of a request are replayed in separate passes (client →
// handler → Searcher.Query → store.Get + Tree.SearchLimited), because the
// benchmark may not edit the program to time a level from inside. A child
// span therefore does not lie inside its parent's wall-clock interval; its
// duration is what it covers of the parent.
type span struct {
	ID      int    `json:"id"`
	Name    string `json:"name"`
	Layer   string `json:"layer"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Parent  int    `json:"parent"`
	Request int    `json:"request"`
}

func (s span) dur() time.Duration { return time.Duration(s.EndNS - s.StartNS) }

// recorder keeps spans in memory until the run ends. It is used from one
// goroutine at a time (the traced passes are serial).
type recorder struct {
	epoch time.Time
	spans []span
}

// add records one span and returns its ID.
func (r *recorder) add(name, layer string, start, end time.Time, parent, request int) int {
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{
		ID: id, Name: name, Layer: layer,
		StartNS: start.Sub(r.epoch).Nanoseconds(), EndNS: end.Sub(r.epoch).Nanoseconds(),
		Parent: parent, Request: request,
	})
	return id
}

// write stores the spans as one JSON array.
func (r *recorder) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	raw, err := json.Marshal(r.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}

// selfTimes returns each span's self time: its duration minus the
// durations of the spans that name it as parent.
func selfTimes(spans []span) map[int]time.Duration {
	self := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		self[s.ID] += s.dur()
		if s.Parent != 0 {
			self[s.Parent] -= s.dur()
		}
	}
	return self
}

// meanByName averages a per-span quantity over the spans of each name.
func meanByName(spans []span, of func(span) time.Duration) map[string]time.Duration {
	sum := map[string]time.Duration{}
	n := map[string]int{}
	for _, s := range spans {
		sum[s.Name] += of(s)
		n[s.Name]++
	}
	for name := range sum {
		sum[name] /= time.Duration(n[name])
	}
	return sum
}
