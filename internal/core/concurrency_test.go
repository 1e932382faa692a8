package core

import (
	"context"
	"errors"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"

	"repro/internal/obs"
	"repro/internal/querylog"
	"repro/internal/seqstore"
)

// TestConcurrentEngineStress exercises the single-writer/many-reader
// discipline end to end: one goroutine Adds new series into a DynamicIndex
// engine while reader goroutines run every search family and an HTTP client
// scrapes the /debug and /search surfaces. The test's value is under
// `go test -race` (CI runs it there); without the race detector it is a
// liveness smoke test — and, the writer having mutated the flat index in
// place under the readers' feet, a check afterwards that the index still
// answers like the linear scan for every series.
func TestConcurrentEngineStress(t *testing.T) {
	hub := obs.NewHub()
	g := querylog.NewGenerator(querylog.DefaultStart, 128, 7)
	data := append(g.Exemplars(), g.Dataset(16)...)
	e, err := NewEngine(data, Config{Budget: 8, DynamicIndex: true, Workers: 4, Obs: hub})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	srv := httptest.NewServer(obs.Handler(hub,
		obs.Route{Pattern: "/v2/search", Handler: V2SearchHandler(e)}))
	defer srv.Close()

	// Fresh series for the writer, from a differently-seeded generator so
	// their shapes (not necessarily names) differ from the indexed set.
	// Enough of them that the writer grows leaves in place, splits them and
	// runs into repacks of the flat index while the readers are inside it.
	extra := querylog.NewGenerator(querylog.DefaultStart, 128, 99).Queries(48)
	qvals := g.Queries(2)
	probe := qvals[0].Values

	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // single writer
		defer wg.Done()
		for _, s := range extra {
			if _, err := e.Add(s); err != nil {
				t.Errorf("concurrent Add(%q): %v", s.Name, err)
			}
		}
	}()
	for r := 0; r < 4; r++ { // readers
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				switch (r + i) % 5 {
				case 0:
					if _, _, err := similarQueries(e, probe, 3); err != nil {
						t.Errorf("SimilarQueries: %v", err)
					}
				case 1:
					if _, _, err := similarToID(e, i%e.Len(), 3); err != nil {
						t.Errorf("SimilarToID: %v", err)
					}
				case 2:
					if _, err := queryByBurst(e, probe, 3, Long); err != nil {
						t.Errorf("QueryByBurst: %v", err)
					}
				case 3:
					if _, err := linearScan(e, probe, 3); err != nil {
						t.Errorf("LinearScan: %v", err)
					}
				case 4:
					batch := [][]float64{probe, qvals[1].Values}
					if err := fanSimilar(context.Background(), e, batch, 3); err != nil {
						t.Errorf("concurrent similar queries: %v", err)
					}
				}
			}
		}(r)
	}
	wg.Add(1)
	go func() { // canceller: fires cancellations into live traversals
		defer wg.Done()
		for i := 0; i < 30; i++ {
			ctx, cancel := context.WithCancel(context.Background())
			done := make(chan struct{})
			go func() {
				defer close(done)
				req := Request{Kind: KindSimilar, Values: probe, K: 3}
				if i%3 == 0 {
					req = Request{Kind: KindBurstID, ID: i % e.Len(), K: 3, Window: Long}
				}
				if _, err := e.Query(ctx, req); err != nil &&
					!errors.Is(err, context.Canceled) {
					t.Errorf("cancelled Query: %v", err)
				}
			}()
			if i%2 == 0 {
				cancel() // race the cancellation against the traversal
			}
			<-done
			cancel()
		}
	}()
	wg.Add(1)
	go func() { // budgeted reader: truncation under concurrent writes
		defer wg.Done()
		for i := 0; i < 30; i++ {
			resp, err := e.Query(context.Background(), Request{
				Kind: KindLinear, Values: probe, K: 3,
				Budget: Budget{MaxNodeVisits: 1 + i%7},
			})
			if err != nil {
				t.Errorf("budgeted Query: %v", err)
			} else if !resp.Truncated && e.Len() > 8 {
				t.Errorf("iteration %d: %d-row budget did not truncate", i, 1+i%7)
			}
		}
	}()
	wg.Add(1)
	go func() { // HTTP scraper
		defer wg.Done()
		urls := []string{
			srv.URL + "/debug/vars",
			srv.URL + "/debug/metrics",
			srv.URL + "/v2/search?q=" + querylog.Cinema + "&k=3",
			srv.URL + "/v2/search?q=" + querylog.Cinema + "&k=3&mode=linear&max_nodes=5",
			srv.URL + "/v2/search?q=" + querylog.Cinema + "&k=2&mode=qbb",
		}
		for i := 0; i < 10; i++ {
			for _, u := range urls {
				resp, err := http.Get(u)
				if err != nil {
					t.Errorf("GET %s: %v", u, err)
					continue
				}
				if _, err := io.Copy(io.Discard, resp.Body); err != nil {
					t.Errorf("read %s: %v", u, err)
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("GET %s: status %d", u, resp.StatusCode)
				}
			}
		}
	}()
	wg.Wait()

	if got := e.Len(); got != len(data)+len(extra) {
		t.Errorf("engine holds %d series after stress, want %d", got, len(data)+len(extra))
	}
	// The engine must still answer consistently after the churn: for every
	// series, old and added, the index returns what the linear scan returns.
	for id := 0; id < e.Len(); id++ {
		ser, err := e.Series(id)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := similarQueries(e, ser.Values, 5)
		if err != nil {
			t.Fatalf("post-stress search for series %d: %v", id, err)
		}
		want, err := linearScan(e, ser.Values, 5)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("series %d: index and linear scan disagree after the churn:\n index  %+v\n linear %+v", id, got, want)
		}
	}
	if n := e.arena.Len(); n != e.Len() {
		t.Errorf("the arena holds %d features for %d series after %d concurrent adds", n, e.Len(), len(extra))
	}
	if hold := e.met.writeLockHold.Histogram().Count(); hold != int64(len(extra)) {
		t.Errorf("engine_write_lock_hold_seconds observed %d times for %d adds", hold, len(extra))
	}
}

// TestLinearScanShardedMatchesSerial: the sharded parallel scan must be
// byte-identical to the single-threaded scan — including the order of
// equal-distance ties — for any worker count.
func TestLinearScanShardedMatchesSerial(t *testing.T) {
	const trials = 100
	for trial := 0; trial < trials; trial++ {
		rng := rand.New(rand.NewSource(int64(2000 + trial)))
		g := querylog.NewGenerator(querylog.DefaultStart, 64, int64(3000+trial))
		e, err := NewEngine(g.Dataset(6+rng.Intn(30)), Config{Budget: 6})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		q := g.Queries(1)[0].Values
		k := 1 + rng.Intn(8)

		e.cfg.Workers = 1
		want, err := linearScan(e, q, k)
		if err != nil {
			t.Fatalf("trial %d: serial scan: %v", trial, err)
		}
		for _, workers := range []int{2, 3, 8} {
			e.cfg.Workers = workers
			got, err := linearScan(e, q, k)
			if err != nil {
				t.Fatalf("trial %d: sharded scan (%d workers): %v", trial, workers, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("trial %d: %d-worker scan differs from serial\ngot:  %v\nwant: %v",
					trial, workers, got, want)
			}
		}
		e.Close()
	}
}

// errInjected is the index insert failure the rollback tests force through
// Engine.FailNextIndexInsert.
var errInjected = errors.New("injected index insert failure")

// TestAddRollbackOnInsertFailure forces the index insert inside Add to
// fail and verifies the store rollback: the engine's state is exactly as
// before, and it keeps serving queries.
func TestAddRollbackOnInsertFailure(t *testing.T) {
	g := querylog.NewGenerator(querylog.DefaultStart, 128, 3)
	e, err := NewEngine(g.Dataset(12), Config{Budget: 8, DynamicIndex: true})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	extra := querylog.NewGenerator(querylog.DefaultStart, 128, 77).Queries(2)
	nextID := e.Len()
	storeLen := e.store.Len()
	names := len(e.names)
	for i := 0; i < 3; i++ { // repeated failures must not accumulate state
		e.FailNextIndexInsert(errInjected)
		if _, err := e.Add(extra[i%2]); !errors.Is(err, errInjected) {
			t.Fatalf("Add #%d: err = %v, want the injected failure", i, err)
		}
		if got := e.store.Len(); got != storeLen {
			t.Fatalf("Add #%d: store length %d after failed add, want %d (rollback)", i, got, storeLen)
		}
		if e.Len() != names || len(e.names) != names {
			t.Fatalf("Add #%d: engine length changed after failed add", i)
		}
	}
	// The engine must be exactly as consistent as before the failed Adds:
	// searches work and a fresh Add succeeds with the same ID the failed
	// attempts were assigned.
	nbs, _, err := similarToID(e, 0, 3)
	if err != nil || len(nbs) == 0 {
		t.Fatalf("post-failure search: %v (%d results)", err, len(nbs))
	}
	for _, n := range nbs {
		if n.ID >= names {
			t.Errorf("search returned rolled-back ID %d", n.ID)
		}
	}
	if id, err := e.Add(extra[1]); err != nil || id != nextID {
		t.Fatalf("recovered Add: id %d err %v, want id %d", id, err, nextID)
	}
}

// TestAddRollbackStoreFailure covers the rollback's own error path: if the
// store cannot truncate, Add must surface both failures.
func TestAddRollbackStoreFailure(t *testing.T) {
	g := querylog.NewGenerator(querylog.DefaultStart, 128, 4)
	e, err := NewEngine(g.Dataset(6), Config{Budget: 8, DynamicIndex: true})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	extra := querylog.NewGenerator(querylog.DefaultStart, 128, 78).Queries(1)[0]
	injected := errors.New("injected append failure")
	e.FailNextIndexInsert(injected)
	e.store = failTruncateStore{e.store}
	_, err = e.Add(extra)
	if err == nil || !errors.Is(err, injected) {
		t.Fatalf("err = %v, want the wrapped append failure", err)
	}
	if !errors.Is(err, errTruncateBroken) {
		t.Fatalf("err = %v, want wrapped rollback failure", err)
	}
}

var errTruncateBroken = errors.New("truncate broken")

// failTruncateStore delegates to a real store but refuses to truncate,
// simulating a store whose rollback path fails.
type failTruncateStore struct{ seqstore.Store }

func (f failTruncateStore) Truncate(int) error { return errTruncateBroken }
