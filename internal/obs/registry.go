// Package obs is the engine-wide observability layer: a zero-dependency,
// concurrency-safe metrics registry (counters, gauges, histograms with
// exponential buckets, timers) plus a lightweight span-based tracer that
// ring-buffers the last N per-query traces (trace.go). http.go exposes both
// over an optional debug HTTP server.
//
// Every instrument is nil-safe: methods on a nil *Counter, *Gauge,
// *Histogram, *Timer, *Trace or *Span are no-ops, and a nil *Registry hands
// out nil instruments. Instrumented code therefore calls metrics
// unconditionally; when observability is disabled the cost is a single nil
// check per operation, and when enabled each operation is one or two atomic
// adds.
package obs

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing int64 metric.
type Counter struct {
	v atomic.Int64
}

// Add increases the counter by n (no-op on a nil counter; negative n is
// ignored to preserve monotonicity).
func (c *Counter) Add(n int64) {
	if c == nil || n < 0 {
		return
	}
	c.v.Add(n)
}

// Inc increases the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 on a nil counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a float64 metric that can go up and down.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v (no-op on a nil gauge).
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add increments the gauge by delta (CAS loop; no-op on a nil gauge).
func (g *Gauge) Add(delta float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		cur := math.Float64frombits(old)
		if g.bits.CompareAndSwap(old, math.Float64bits(cur+delta)) {
			return
		}
	}
}

// Value returns the current value (0 on a nil gauge).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram accumulates observations into exponential buckets: bucket i
// covers (Start·Factor^(i-1), Start·Factor^i], with one underflow bucket
// below Start and one overflow bucket above the last bound. All methods are
// safe for concurrent use; Observe is lock-free.
type Histogram struct {
	bounds []float64 // ascending upper bounds; bounds[0] = Start
	counts []atomic.Int64
	// over counts observations above the last bound.
	over    atomic.Int64
	count   atomic.Int64
	sumBits atomic.Uint64 // float64 bits of the running sum
}

// HistogramOpts shapes a histogram's exponential bucket layout.
type HistogramOpts struct {
	// Start is the first bucket's upper bound (default 1e-6, i.e. 1µs when
	// observing seconds).
	Start float64
	// Factor is the per-bucket growth factor (default 2).
	Factor float64
	// Buckets is the number of finite buckets (default 26, spanning
	// 1µs..~67s at the defaults).
	Buckets int
}

func (o *HistogramOpts) fill() {
	if o.Start <= 0 {
		o.Start = 1e-6
	}
	if o.Factor <= 1 {
		o.Factor = 2
	}
	if o.Buckets <= 0 {
		o.Buckets = 26
	}
}

func newHistogram(opts HistogramOpts) *Histogram {
	opts.fill()
	h := &Histogram{
		bounds: make([]float64, opts.Buckets),
		counts: make([]atomic.Int64, opts.Buckets),
	}
	b := opts.Start
	for i := range h.bounds {
		h.bounds[i] = b
		b *= opts.Factor
	}
	return h
}

// Observe records one value (no-op on a nil histogram; NaN is ignored).
func (h *Histogram) Observe(v float64) {
	if h == nil || math.IsNaN(v) {
		return
	}
	// Binary search for the first bound >= v.
	i := sort.SearchFloat64s(h.bounds, v)
	if i < len(h.bounds) {
		h.counts[i].Add(1)
	} else {
		h.over.Add(1)
	}
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		sum := math.Float64frombits(old)
		if h.sumBits.CompareAndSwap(old, math.Float64bits(sum+v)) {
			return
		}
	}
}

// Count returns the number of observations (0 on a nil histogram).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observed values (0 on a nil histogram).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// Timer observes durations (in seconds) into a histogram.
type Timer struct {
	h *Histogram
}

// Observe records one duration (no-op on a nil timer).
func (t *Timer) Observe(d time.Duration) {
	if t == nil {
		return
	}
	t.h.Observe(d.Seconds())
}

// Start returns a function that, when called, observes the elapsed time
// since Start. On a nil timer the returned function is a no-op (never nil),
// so callers can always `defer t.Start()()`.
func (t *Timer) Start() func() {
	if t == nil {
		return func() {}
	}
	begin := time.Now()
	return func() { t.Observe(time.Since(begin)) }
}

// Histogram returns the backing histogram (nil on a nil timer).
func (t *Timer) Histogram() *Histogram {
	if t == nil {
		return nil
	}
	return t.h
}

// Registry is a named collection of instruments. Get-or-create accessors
// are idempotent: asking twice for the same name returns the same
// instrument. Registering one name as two different kinds, with a name that
// is not Prometheus-legal, or as a histogram with a conflicting bucket
// layout panics (a programming error, like a duplicate expvar).
type Registry struct {
	mu       sync.RWMutex
	kinds    map[string]string // name -> "counter"|"gauge"|"histogram"
	help     map[string]string
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	histOpts map[string]HistogramOpts // filled layout each histogram was created with
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		kinds:    map[string]string{},
		help:     map[string]string{},
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
		histOpts: map[string]HistogramOpts{},
	}
}

// validMetricName reports whether name matches the Prometheus metric-name
// grammar [a-zA-Z_:][a-zA-Z0-9_:]*.
func validMetricName(name string) bool {
	if name == "" {
		return false
	}
	for i, c := range name {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

func (r *Registry) claim(name, kind, help string) {
	if !validMetricName(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	if got, ok := r.kinds[name]; ok && got != kind {
		panic(fmt.Sprintf("obs: metric %q registered as %s and %s", name, got, kind))
	}
	r.kinds[name] = kind
	if help != "" {
		r.help[name] = help
	}
}

// Counter returns the counter registered under name, creating it on first
// use. A nil registry returns a nil (no-op) counter.
func (r *Registry) Counter(name, help string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.claim(name, "counter", help)
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the gauge registered under name, creating it on first use.
func (r *Registry) Gauge(name, help string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.claim(name, "gauge", help)
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the histogram registered under name, creating it with
// the given bucket layout on first use. Re-registering an existing name with
// a *different* filled layout panics — a silently reused layout would make
// one call site's buckets lie about another's observations.
func (r *Registry) Histogram(name, help string, opts HistogramOpts) *Histogram {
	if r == nil {
		return nil
	}
	opts.fill()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.claim(name, "histogram", help)
	h, ok := r.hists[name]
	if !ok {
		h = newHistogram(opts)
		r.hists[name] = h
		r.histOpts[name] = opts
	} else if got := r.histOpts[name]; got != opts {
		panic(fmt.Sprintf("obs: histogram %q registered with layouts %+v and %+v", name, got, opts))
	}
	return h
}

// Timer returns a timer over the histogram registered under name (seconds,
// default exponential buckets 1µs..~67s).
func (r *Registry) Timer(name, help string) *Timer {
	if r == nil {
		return nil
	}
	return &Timer{h: r.Histogram(name, help, HistogramOpts{})}
}

// ---------------------------------------------------------------------------
// Snapshots

// CounterSnapshot is one counter's frozen state.
type CounterSnapshot struct {
	Name  string `json:"name"`
	Help  string `json:"help,omitempty"`
	Value int64  `json:"value"`
}

// GaugeSnapshot is one gauge's frozen state.
type GaugeSnapshot struct {
	Name  string  `json:"name"`
	Help  string  `json:"help,omitempty"`
	Value float64 `json:"value"`
}

// BucketSnapshot is one histogram bucket: the count of observations at or
// below UpperBound (non-cumulative).
type BucketSnapshot struct {
	UpperBound float64 `json:"le"`
	Count      int64   `json:"count"`
}

// HistogramSnapshot is one histogram's frozen state. Buckets with zero
// observations are elided; Overflow counts observations above the last
// bucket bound.
type HistogramSnapshot struct {
	Name     string           `json:"name"`
	Help     string           `json:"help,omitempty"`
	Count    int64            `json:"count"`
	Sum      float64          `json:"sum"`
	Buckets  []BucketSnapshot `json:"buckets,omitempty"`
	Overflow int64            `json:"overflow,omitempty"`
}

// Snapshot is a frozen, deterministically ordered view of a registry:
// every slice is sorted by metric name.
type Snapshot struct {
	Counters   []CounterSnapshot   `json:"counters"`
	Gauges     []GaugeSnapshot     `json:"gauges"`
	Histograms []HistogramSnapshot `json:"histograms"`
}

// Snapshot freezes the registry. A nil registry yields an empty snapshot.
func (r *Registry) Snapshot() Snapshot {
	var s Snapshot
	if r == nil {
		return s
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	for name, c := range r.counters {
		s.Counters = append(s.Counters, CounterSnapshot{Name: name, Help: r.help[name], Value: c.Value()})
	}
	for name, g := range r.gauges {
		s.Gauges = append(s.Gauges, GaugeSnapshot{Name: name, Help: r.help[name], Value: g.Value()})
	}
	for name, h := range r.hists {
		hs := HistogramSnapshot{Name: name, Help: r.help[name], Count: h.Count(), Sum: h.Sum(), Overflow: h.over.Load()}
		for i := range h.counts {
			if n := h.counts[i].Load(); n > 0 {
				hs.Buckets = append(hs.Buckets, BucketSnapshot{UpperBound: h.bounds[i], Count: n})
			}
		}
		s.Histograms = append(s.Histograms, hs)
	}
	sort.Slice(s.Counters, func(a, b int) bool { return s.Counters[a].Name < s.Counters[b].Name })
	sort.Slice(s.Gauges, func(a, b int) bool { return s.Gauges[a].Name < s.Gauges[b].Name })
	sort.Slice(s.Histograms, func(a, b int) bool { return s.Histograms[a].Name < s.Histograms[b].Name })
	return s
}

// Hub bundles the observability surfaces an engine threads through its
// components. A nil *Hub disables observability everywhere.
type Hub struct {
	// Metrics is the metric registry.
	Metrics *Registry
	// Traces is the per-query trace recorder.
	Traces *Tracer
	// Slow is the slow-query log. It starts disabled (threshold 0); call
	// Slow.SetThreshold to turn it on.
	Slow *SlowLog
	// Requests rings recent request-scoped wide events (/debug/requests).
	Requests *RequestLog

	// health holds the readiness probes /debug/healthz evaluates.
	health atomic.Pointer[[]HealthCheck]
}

// NewHub creates a hub with a fresh registry, a tracer keeping the last 128
// traces, a disabled slow-query log holding up to 32 entries, and a
// request-event ring of the last 256 wide events. The tracer feeds finished
// traces into the slow log automatically. Explain reports need no store of
// their own: they ride on the kept traces (see Trace.Attach).
func NewHub() *Hub {
	h := &Hub{
		Metrics:  NewRegistry(),
		Traces:   NewTracer(128),
		Slow:     newSlowLog(32),
		Requests: NewRequestLog(256),
	}
	h.Traces.SetSlowLog(h.Slow)
	return h
}

// Registry returns the hub's registry (nil on a nil hub).
func (h *Hub) Registry() *Registry {
	if h == nil {
		return nil
	}
	return h.Metrics
}

// Tracer returns the hub's tracer (nil on a nil hub).
func (h *Hub) Tracer() *Tracer {
	if h == nil {
		return nil
	}
	return h.Traces
}

// SlowLog returns the hub's slow-query log (nil on a nil hub).
func (h *Hub) SlowLog() *SlowLog {
	if h == nil {
		return nil
	}
	return h.Slow
}

// RequestLog returns the hub's wide-event ring (nil on a nil hub).
func (h *Hub) RequestLog() *RequestLog {
	if h == nil {
		return nil
	}
	return h.Requests
}

// HealthCheck is one named readiness probe: Probe returns nil when the
// dependency is ready and an error describing why not otherwise.
type HealthCheck struct {
	Name  string
	Probe func() error
}

// SetHealthChecks installs the probes /debug/healthz evaluates (replacing
// any previous set). No-op on a nil hub.
func (h *Hub) SetHealthChecks(checks ...HealthCheck) {
	if h == nil {
		return
	}
	cp := append([]HealthCheck(nil), checks...)
	h.health.Store(&cp)
}

// HealthChecks returns the installed probes (nil when none).
func (h *Hub) HealthChecks() []HealthCheck {
	if h == nil {
		return nil
	}
	if p := h.health.Load(); p != nil {
		return *p
	}
	return nil
}
