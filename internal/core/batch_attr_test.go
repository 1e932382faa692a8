package core

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"repro/internal/obs"
	"repro/internal/querylog"
)

// attrEngine builds a small engine with a hub, sized so the batch fan-out
// genuinely uses several workers.
func attrEngine(t *testing.T, workers int) (*Engine, *obs.Hub, [][]float64) {
	t.Helper()
	hub := obs.NewHub()
	g := querylog.NewGenerator(querylog.DefaultStart, 128, 7)
	data := append(g.Exemplars(), g.Dataset(24)...)
	e, err := NewEngine(data, Config{Budget: 8, Seed: 7, Workers: workers, Obs: hub})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	qs := g.Queries(12)
	qvals := make([][]float64, len(qs))
	for i, q := range qs {
		qvals[i] = q.Values
	}
	return e, hub, qvals
}

// TestBatchAttributionInvariants pins the per-worker accounting of one
// batch: every query is attributed to exactly one worker, utilizations are
// well-formed, and the engine-lifetime shards agree with the batch.
func TestBatchAttributionInvariants(t *testing.T) {
	t.Parallel()
	e, hub, qvals := attrEngine(t, 4)
	out, _, err := e.BatchSearchCtx(context.Background(), qvals, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(qvals) {
		t.Fatalf("got %d result sets, want %d", len(out), len(qvals))
	}

	rep := e.WorkerStats()
	if len(rep.Workers) != 4 {
		t.Fatalf("stats track %d workers, want 4", len(rep.Workers))
	}
	if rep.Batches != 1 {
		t.Errorf("batches = %d, want 1", rep.Batches)
	}
	var tasks, nodes int64
	for _, w := range rep.Workers {
		if w.Tasks < 0 || w.BusyNS < 0 || w.IdleNS < 0 {
			t.Errorf("worker %d has negative counters: %+v", w.Worker, w)
		}
		if w.Utilization < 0 || w.Utilization > 1 {
			t.Errorf("worker %d utilization %v outside [0,1]", w.Worker, w.Utilization)
		}
		tasks += w.Tasks
		nodes += w.NodesVisited
	}
	if tasks != int64(len(qvals)) {
		t.Errorf("workers account %d tasks, batch ran %d queries", tasks, len(qvals))
	}
	if nodes <= 0 {
		t.Error("no nodes attributed to any worker")
	}

	// The same invariants must hold for the wide event the batch emitted.
	ev, ok := hub.RequestLog().Snapshot(), false
	var batchEv obs.WideEvent
	for _, e := range ev {
		if e.Op == "batch_search" {
			batchEv, ok = e, true
			break
		}
	}
	if !ok {
		t.Fatal("no batch_search wide event recorded")
	}
	if batchEv.Workers != 4 || len(batchEv.WorkerSpread) != 4 {
		t.Errorf("event fan-out = %d workers, spread %v", batchEv.Workers, batchEv.WorkerSpread)
	}
	var spread int64
	for _, n := range batchEv.WorkerSpread {
		spread += n
	}
	if spread != int64(len(qvals)) {
		t.Errorf("worker spread sums to %d, want %d", spread, len(qvals))
	}
	if batchEv.RequestID == "" {
		t.Error("batch event has no request ID")
	}

	// Prometheus surface: the per-worker histograms and pool counters must
	// be exported.
	srv := httptest.NewServer(obs.Handler(hub))
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/debug/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		"# TYPE pool_worker_tasks histogram",
		"# TYPE pool_worker_busy_seconds histogram",
		"# TYPE pool_worker_utilization gauge",
		"# TYPE pool_worker_imbalance gauge",
		"pool_tasks_total 12",
		"pool_worker_tasks_count 4",
	} {
		if !containsLine(string(body), want) {
			t.Errorf("/debug/metrics missing %q", want)
		}
	}
}

func containsLine(body, want string) bool {
	for len(body) > 0 {
		i := 0
		for i < len(body) && body[i] != '\n' {
			i++
		}
		if body[:i] == want {
			return true
		}
		if i == len(body) {
			break
		}
		body = body[i+1:]
	}
	return false
}

// TestBatchDeterministicAcrossWorkerCounts pins that work stealing never
// perturbs results: out[i] depends only on queries[i], whatever the worker
// count or scheduling.
func TestBatchDeterministicAcrossWorkerCounts(t *testing.T) {
	t.Parallel()
	e1, _, qvals := attrEngine(t, 1)
	want, _, err := e1.BatchSearchCtx(context.Background(), qvals, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 3, 8} {
		e, _, _ := attrEngine(t, workers)
		got, _, err := e.BatchSearchCtx(context.Background(), qvals, 3)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if len(got[i]) != len(want[i]) {
				t.Fatalf("workers=%d query %d: %d results, want %d", workers, i, len(got[i]), len(want[i]))
			}
			for j := range want[i] {
				if got[i][j] != want[i][j] {
					t.Fatalf("workers=%d query %d result %d = %+v, want %+v",
						workers, i, j, got[i][j], want[i][j])
				}
			}
		}
	}
}

// TestWorkerShardsRaceStress mixes Add (write lock + lock-wait attribution),
// BatchSearch (per-worker flushes) and scrapes of /debug/workers and
// WorkerStats. Its value is under -race; without it, it is a liveness smoke
// test.
func TestWorkerShardsRaceStress(t *testing.T) {
	hub := obs.NewHub()
	g := querylog.NewGenerator(querylog.DefaultStart, 128, 11)
	data := append(g.Exemplars(), g.Dataset(12)...)
	e, err := NewEngine(data, Config{Budget: 8, Seed: 11, DynamicIndex: true, Workers: 4, Obs: hub})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	srv := httptest.NewServer(obs.Handler(hub))
	defer srv.Close()

	extra := querylog.NewGenerator(querylog.DefaultStart, 128, 101).Queries(6)
	qs := g.Queries(4)
	qvals := make([][]float64, len(qs))
	for i, q := range qs {
		qvals[i] = q.Values
	}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // single writer: exercises write-lock wait attribution
		defer wg.Done()
		for _, s := range extra {
			if _, err := e.Add(s); err != nil {
				t.Errorf("Add(%q): %v", s.Name, err)
			}
		}
	}()
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() { // batch readers: per-worker flushes
			defer wg.Done()
			for i := 0; i < 5; i++ {
				if _, _, err := e.BatchSearchCtx(context.Background(), qvals, 2); err != nil {
					t.Errorf("BatchSearchCtx: %v", err)
				}
			}
		}()
	}
	wg.Add(1)
	go func() { // scraper: lock-free snapshot reads, HTTP and direct
		defer wg.Done()
		for i := 0; i < 10; i++ {
			rep := e.WorkerStats()
			for _, w := range rep.Workers {
				if w.Tasks < 0 {
					t.Error("negative task count mid-stress")
				}
			}
			resp, err := srv.Client().Get(srv.URL + "/debug/workers")
			if err != nil {
				t.Errorf("scrape: %v", err)
				return
			}
			var out obs.WorkerShardsSnapshot
			if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
				t.Errorf("decode scrape: %v", err)
			}
			resp.Body.Close()
		}
	}()
	wg.Wait()

	rep := e.WorkerStats()
	var tasks int64
	for _, w := range rep.Workers {
		tasks += w.Tasks
	}
	if want := int64(3 * 5 * len(qvals)); tasks != want {
		t.Errorf("stress accounted %d tasks, want %d", tasks, want)
	}
	if rep.Batches != 15 {
		t.Errorf("batches = %d, want 15", rep.Batches)
	}
}

// TestV2SearchRequestIDResolvable is the acceptance criterion end to end:
// the /v2/search response's request_id resolves at /debug/requests to a
// wide event describing the same search.
func TestV2SearchRequestIDResolvable(t *testing.T) {
	t.Parallel()
	e, hub, _ := attrEngine(t, 2)
	srv := httptest.NewServer(obs.Handler(hub,
		obs.Route{Pattern: "/v2/search", Handler: V2SearchHandler(e)}))
	defer srv.Close()

	resp, err := srv.Client().Get(srv.URL + "/v2/search?q=" + querylog.ExemplarNames()[0] + "&k=3")
	if err != nil {
		t.Fatal(err)
	}
	var sr V2Response
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("search status %d", resp.StatusCode)
	}
	if sr.RequestID == "" {
		t.Fatal("search response carries no request_id")
	}
	if hdr := resp.Header.Get("X-Request-Id"); hdr != sr.RequestID {
		t.Errorf("X-Request-Id %q != body request_id %q", hdr, sr.RequestID)
	}

	resp, err = srv.Client().Get(srv.URL + "/debug/requests?id=" + sr.RequestID)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/requests?id=%s status %d", sr.RequestID, resp.StatusCode)
	}
	var ev obs.WideEvent
	if err := json.NewDecoder(resp.Body).Decode(&ev); err != nil {
		t.Fatal(err)
	}
	if ev.Op != "similar_id" || ev.K != 3 {
		t.Errorf("wide event = %+v, want op=similar_id k=3", ev)
	}
	if ev.Results != 3 {
		t.Errorf("wide event results = %d, want 3", ev.Results)
	}
	if ev.NodesVisited <= 0 {
		t.Error("wide event attributes no index work")
	}
}

// TestQueryWideEventAbortCauses pins the abort taxonomy: cancellation maps
// to "canceled", budget truncation to truncated+"budget".
func TestQueryWideEventAbortCauses(t *testing.T) {
	t.Parallel()
	e, hub, qvals := attrEngine(t, 2)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.Query(ctx, Request{Kind: KindSimilar, Values: qvals[0], K: 2}); err == nil {
		t.Fatal("cancelled query succeeded")
	}
	ev := hub.RequestLog().Snapshot()[0]
	if ev.Abort != "canceled" || ev.Error == "" {
		t.Errorf("cancelled event = %+v, want abort=canceled", ev)
	}

	resp, err := e.Query(context.Background(), Request{
		Kind: KindSimilar, Values: qvals[0], K: 2,
		Budget: Budget{MaxNodeVisits: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Truncated {
		t.Fatal("one-node budget did not truncate")
	}
	ev = hub.RequestLog().Snapshot()[0]
	if !ev.Truncated || ev.Abort != "budget" {
		t.Errorf("truncated event = %+v, want truncated abort=budget", ev)
	}
	if ev.MaxNodes != 1 {
		t.Errorf("event budget echo = %d, want 1", ev.MaxNodes)
	}
}
