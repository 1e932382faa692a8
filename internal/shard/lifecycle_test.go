package shard

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"slices"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/querylog"
)

// TestOneRequestOneRecord holds the single engine and the sharded one to the
// same request lifecycle: one request leaves one wide event, one kept trace
// that Tracer.Find resolves by the event's trace ID (the request's one ID), a
// slow-log entry carrying that ID, and exactly one count in engine_query_truncated_total or
// engine_query_aborted_total when a budget cut it short or its context was
// already dead — however many shards answered it.
func TestOneRequestOneRecord(t *testing.T) {
	data := querylog.NewGenerator(querylog.DefaultStart, 128, 11).Dataset(256)
	hub := obs.NewHub()
	hub.Slow.SetThreshold(time.Nanosecond)
	hub.Slow.SetLogger(slog.New(slog.NewTextHandler(io.Discard, nil)))
	cfg := core.Config{Budget: 8, Seed: 3, Workers: 2, Obs: hub}

	type row struct {
		name   string
		e      core.Searcher
		op     string  // the wide event's op
		root   string  // the in-process trace's root span
		spread []int64 // per live shard results of the probe below (nil = unsharded)
	}
	single, err := core.NewEngine(data, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer single.Close()
	rows := []row{{name: "engine", e: single, op: "similar_id", root: "similar_to_id"}}
	const k = 4
	for _, n := range []int{1, 2, 8} {
		c := cfg
		c.Shards = n
		se, err := newSharded(data, c)
		if err != nil {
			t.Fatal(err)
		}
		defer se.Close()
		// Every live shard answers the query series' k+1 nearest (the
		// over-fetch that survives dropping the series itself).
		var spread []int64
		for _, size := range se.ShardSizes() {
			if size > 0 {
				spread = append(spread, int64(min(k+1, size)))
			}
		}
		rows = append(rows, row{name: fmt.Sprintf("shards=%d", n), e: se,
			op: "sharded_similar_id", root: "sharded_similar_id", spread: spread})
	}

	reg := hub.Registry()
	truncated := reg.Counter("engine_query_truncated_total", "")
	aborted := reg.Counter("engine_query_aborted_total", "")
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			// run issues one request and returns the wide events it left.
			run := func(ctx context.Context, req core.Request) (*core.Response, []obs.WideEvent, error) {
				before := hub.RequestLog().Snapshot()
				resp, err := r.e.Query(ctx, req)
				after := hub.RequestLog().Snapshot()
				// The events newer than the newest one before (all of them
				// when the ring was empty or has cycled past it).
				n := -1
				if len(before) > 0 {
					n = slices.IndexFunc(after, func(ev obs.WideEvent) bool { return ev.TraceID == before[0].TraceID })
				}
				if n < 0 {
					n = len(after)
				}
				return resp, after[:n], err
			}
			req := core.Request{Kind: core.KindSimilarID, ID: 5, K: k}

			_, evs, err := run(context.Background(), req)
			if err != nil {
				t.Fatal(err)
			}
			if len(evs) != 1 {
				t.Errorf("one request recorded %d wide events, want 1", len(evs))
			}
			if len(evs) == 0 {
				t.FailNow()
			}
			ev := evs[0] // the most recent: the request's own
			if ev.Op != r.op || ev.Workers != len(r.spread) || !slices.Equal(ev.WorkerSpread, r.spread) {
				t.Errorf("wide event op %q workers %d spread %v, want %q %d %v",
					ev.Op, ev.Workers, ev.WorkerSpread, r.op, len(r.spread), r.spread)
			}
			if rec, ok := hub.Tracer().Find(ev.TraceID); !ok || rec.Root.Name != r.root {
				t.Errorf("Tracer.Find(%q) = %q, %v; want the %q trace", ev.TraceID, rec.Root.Name, ok, r.root)
			}
			if slow := hub.SlowLog().Snapshot(); len(slow) == 0 || slow[0].TraceID != ev.TraceID {
				t.Errorf("slow-log entry does not carry trace_id %q", ev.TraceID)
			}

			budgeted := req
			budgeted.Budget.MaxNodeVisits = 8
			before := truncated.Value()
			resp, evs, err := run(context.Background(), budgeted)
			if err != nil || !resp.Truncated {
				t.Fatalf("MaxNodeVisits=8: err %v, truncated %v; want a truncated answer", err, resp != nil && resp.Truncated)
			}
			if got := truncated.Value() - before; got != 1 || len(evs) != 1 || !evs[0].Truncated {
				t.Errorf("truncated request: engine_query_truncated_total +%d, %d wide events; want +1 and one truncated event", got, len(evs))
			}

			dead, cancel := context.WithCancel(context.Background())
			cancel()
			before = aborted.Value()
			_, evs, err = run(dead, req)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("dead context: err %v, want context.Canceled", err)
			}
			if got := aborted.Value() - before; got != 1 || len(evs) != 1 || evs[0].Abort != "canceled" {
				t.Errorf("dead context: engine_query_aborted_total +%d, %d wide events; want +1 and one canceled event", got, len(evs))
			}
		})
	}
}
