package shard

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"slices"
	"strconv"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/querylog"
	"repro/internal/series"
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
	cfg := core.Config{Budget: 8, Workers: 2, Obs: hub}

	type row struct {
		name   string
		e      core.Searcher
		op     string     // the wide event's op
		root   string     // the in-process trace's root span
		spread []int64    // per live shard results of the probe below (nil = unsharded)
		fanout []obs.Attr // the trace root's wave1 and seed annotations (nil = unsharded)
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
		se, err := newSharded(core.SliceSource(data), c)
		if err != nil {
			t.Fatal(err)
		}
		defer se.Close()
		spread, fanout := seededSpread(t, se, 5, k, cfg.Workers)
		rows = append(rows, row{name: fmt.Sprintf("shards=%d", n), e: se,
			op: "sharded_similar_id", root: "sharded_similar_id", spread: spread, fanout: fanout})
	}
	want, err := single.Query(context.Background(), core.Request{Kind: core.KindSimilarID, ID: 5, K: k})
	if err != nil {
		t.Fatal(err)
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

			resp, evs, err := run(context.Background(), req)
			if err != nil {
				t.Fatal(err)
			}
			requireSameResponse(t, r.name, want, resp)
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
			rec, ok := hub.Tracer().Find(ev.TraceID)
			if !ok || rec.Root.Name != r.root {
				t.Errorf("Tracer.Find(%q) = %q, %v; want the %q trace", ev.TraceID, rec.Root.Name, ok, r.root)
			}
			fanout := slices.DeleteFunc(slices.Clone(rec.Root.Attrs), func(a obs.Attr) bool { return a.Key != "wave1" && a.Key != "seed" })
			if !slices.Equal(fanout, r.fanout) {
				t.Errorf("trace fan-out annotations %v, want %v", fanout, r.fanout)
			}
			if slow := hub.SlowLog().Snapshot(); len(slow) == 0 || slow[0].TraceID != ev.TraceID {
				t.Errorf("slow-log entry does not carry trace_id %q", ev.TraceID)
			}

			budgeted := req
			budgeted.Budget.MaxNodeVisits = 8
			before := truncated.Value()
			resp, evs, err = run(context.Background(), budgeted)
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

// seededSpread is, by brute force over the stored curves, how many
// neighbours each live shard of se returns for the by-ID request (id, k),
// and the fan-out annotations its trace carries. Every sub-request asks for
// k+1 (the over-fetch that survives dropping the series itself). The first
// wave — the first min(workers, live) shards — returns min(k+1, its rows).
// The seed is the smallest (k+1)-th distance among first-wave shards that
// hold k+1 rows, and every later shard returns min(k+1, its rows at
// distance ≤ seed): all its rows when there is no seed.
func seededSpread(t *testing.T, se *ShardedEngine, id, k, workers int) ([]int64, []obs.Attr) {
	t.Helper()
	q, err := se.StandardizedValues(id)
	if err != nil {
		t.Fatal(err)
	}
	var dists [][]float64 // per live shard, ascending
	for _, gids := range se.global {
		if len(gids) == 0 {
			continue
		}
		var d []float64
		for _, gid := range gids {
			z, err := se.StandardizedValues(gid)
			if err != nil {
				t.Fatal(err)
			}
			dist, err := series.Euclidean(q, z)
			if err != nil {
				t.Fatal(err)
			}
			d = append(d, dist)
		}
		slices.Sort(d)
		dists = append(dists, d)
	}
	wave1 := min(workers, len(dists))
	fanout := []obs.Attr{{Key: "wave1", Value: strconv.Itoa(wave1)}}
	seed := math.Inf(1)
	for _, d := range dists[:wave1] {
		if len(d) > k {
			seed = min(seed, d[k])
		}
	}
	if wave1 < len(dists) && !math.IsInf(seed, 1) {
		fanout = append(fanout, obs.Attr{Key: "seed", Value: strconv.FormatFloat(seed, 'g', -1, 64)})
	}
	spread := make([]int64, len(dists))
	for i, d := range dists {
		n := len(d)
		if i >= wave1 {
			n = 0
			for _, dist := range d {
				if dist <= seed {
					n++
				}
			}
		}
		spread[i] = int64(min(k+1, n))
	}
	return spread, fanout
}
