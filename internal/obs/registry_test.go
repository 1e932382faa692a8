package obs

import (
	"math"
	"reflect"
	"sync"
	"testing"
	"time"
)

func TestCounterConcurrent(t *testing.T) {
	t.Parallel()
	r := NewRegistry()
	c := r.Counter("c", "test counter")
	const workers, perWorker = 16, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != workers*perWorker {
		t.Errorf("counter = %d, want %d", got, workers*perWorker)
	}
	c.Add(-5) // negative deltas are ignored (counters are monotone)
	if got := c.Value(); got != workers*perWorker {
		t.Errorf("counter after negative Add = %d", got)
	}
}

func TestCounterIdentity(t *testing.T) {
	t.Parallel()
	r := NewRegistry()
	if r.Counter("same", "") != r.Counter("same", "") {
		t.Error("same name returned different counters")
	}
}

func TestRegistryKindConflictPanics(t *testing.T) {
	t.Parallel()
	r := NewRegistry()
	r.Counter("x", "")
	defer func() {
		if recover() == nil {
			t.Error("registering one name as two kinds did not panic")
		}
	}()
	r.Gauge("x", "")
}

func TestGaugeConcurrent(t *testing.T) {
	t.Parallel()
	r := NewRegistry()
	g := r.Gauge("g", "")
	const workers, perWorker = 8, 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				g.Add(0.5)
			}
		}()
	}
	wg.Wait()
	if got, want := g.Value(), float64(workers*perWorker)*0.5; math.Abs(got-want) > 1e-9 {
		t.Errorf("gauge = %v, want %v", got, want)
	}
	g.Set(-3)
	if g.Value() != -3 {
		t.Errorf("gauge after Set = %v", g.Value())
	}
}

func TestHistogramBucketsAndQuantiles(t *testing.T) {
	t.Parallel()
	r := NewRegistry()
	h := r.Histogram("h", "", HistogramOpts{Start: 1, Factor: 2, Buckets: 4}) // bounds 1,2,4,8
	for _, v := range []float64{0.5, 1, 1.5, 3, 7, 100} {
		h.Observe(v)
	}
	if h.Count() != 6 {
		t.Fatalf("count = %d", h.Count())
	}
	if got, want := h.Sum(), 113.0; math.Abs(got-want) > 1e-9 {
		t.Errorf("sum = %v, want %v", got, want)
	}
	// 0.5 and 1 land in bucket le=1; 1.5 in le=2; 3 in le=4; 7 in le=8;
	// 100 overflows.
	snap := r.Snapshot().Histograms[0]
	if q := quantileFromSnapshot(snap, 0.5); q != 2 {
		t.Errorf("p50 = %v, want 2", q)
	}
	if q := quantileFromSnapshot(snap, 1); !math.IsInf(q, 1) {
		t.Errorf("p100 = %v, want +Inf (overflow)", q)
	}
	if q := quantileFromSnapshot(snap, 0); q != 1 {
		t.Errorf("p0 = %v, want 1", q)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	t.Parallel()
	r := NewRegistry()
	h := r.Histogram("hc", "", HistogramOpts{})
	const workers, perWorker = 8, 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				h.Observe(float64(seed+1) * 1e-5)
			}
		}(w)
	}
	wg.Wait()
	if h.Count() != workers*perWorker {
		t.Errorf("count = %d, want %d", h.Count(), workers*perWorker)
	}
	var want float64
	for w := 0; w < workers; w++ {
		want += float64(w+1) * 1e-5 * perWorker
	}
	if math.Abs(h.Sum()-want) > 1e-6 {
		t.Errorf("sum = %v, want %v", h.Sum(), want)
	}
}

func TestTimerObserves(t *testing.T) {
	t.Parallel()
	r := NewRegistry()
	tm := r.Timer("t", "")
	tm.Observe(3 * time.Millisecond)
	done := tm.Start()
	done()
	if got := tm.Histogram().Count(); got != 2 {
		t.Errorf("timer count = %d, want 2", got)
	}
	if tm.Histogram().Sum() < 0.003 {
		t.Errorf("timer sum = %v, want >= 0.003", tm.Histogram().Sum())
	}
}

func TestNilInstrumentsAreNoOps(t *testing.T) {
	t.Parallel()
	var r *Registry
	c := r.Counter("c", "")
	g := r.Gauge("g", "")
	h := r.Histogram("h", "", HistogramOpts{})
	tm := r.Timer("t", "")
	c.Inc()
	c.Add(5)
	g.Set(1)
	g.Add(1)
	h.Observe(1)
	tm.Observe(time.Second)
	tm.Start()()
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Error("nil instruments recorded values")
	}
	if snap := r.Snapshot(); len(snap.Counters) != 0 {
		t.Error("nil registry produced a non-empty snapshot")
	}
}

func TestSnapshotDeterminism(t *testing.T) {
	t.Parallel()
	build := func(order []string) Snapshot {
		r := NewRegistry()
		for _, name := range order {
			r.Counter(name, "help for "+name).Add(int64(len(name)))
		}
		r.Gauge("z_gauge", "").Set(2.5)
		r.Histogram("a_hist", "", HistogramOpts{Start: 1, Factor: 2, Buckets: 3}).Observe(1.5)
		return r.Snapshot()
	}
	s1 := build([]string{"beta", "alpha", "gamma"})
	s2 := build([]string{"gamma", "beta", "alpha"})
	if !reflect.DeepEqual(s1, s2) {
		t.Errorf("snapshots differ by registration order:\n%v\nvs\n%v", s1, s2)
	}
	var names []string
	for _, c := range s1.Counters {
		names = append(names, c.Name)
	}
	if want := []string{"alpha", "beta", "gamma"}; !reflect.DeepEqual(names, want) {
		t.Errorf("counter names = %v, want %v", names, want)
	}
}

func TestHubNilSafety(t *testing.T) {
	t.Parallel()
	var h *Hub
	if h.Registry() != nil || h.Tracer() != nil {
		t.Error("nil hub handed out non-nil components")
	}
	hub := NewHub()
	if hub.Registry() == nil || hub.Tracer() == nil {
		t.Error("NewHub missing components")
	}
}
