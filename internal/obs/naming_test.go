package obs

import (
	"strings"
	"testing"
)

func TestValidMetricName(t *testing.T) {
	t.Parallel()
	for _, good := range []string{"a", "engine_similar_total", "ns:sub:metric", "_hidden", "Abc123"} {
		if !validMetricName(good) {
			t.Errorf("validMetricName(%q) = false", good)
		}
	}
	for _, bad := range []string{"", "1abc", "has space", "dash-ed", "dot.ted", "uni·code"} {
		if validMetricName(bad) {
			t.Errorf("validMetricName(%q) = true", bad)
		}
	}
}

func mustPanic(t *testing.T, contains string, f func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Errorf("expected panic containing %q", contains)
			return
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, contains) {
			t.Errorf("panic = %v, want message containing %q", r, contains)
		}
	}()
	f()
}

func TestRegistryRejectsInvalidNames(t *testing.T) {
	t.Parallel()
	r := NewRegistry()
	mustPanic(t, "invalid metric name", func() { r.Counter("bad name", "") })
	mustPanic(t, "invalid metric name", func() { r.Gauge("2fast", "") })
	mustPanic(t, "invalid metric name", func() { r.Histogram("dash-ed", "", HistogramOpts{}) })
	mustPanic(t, "invalid metric name", func() { r.Timer("", "") })
}

func TestHistogramLayoutConflictPanics(t *testing.T) {
	t.Parallel()
	r := NewRegistry()
	r.Histogram("h", "", HistogramOpts{Start: 0.001, Factor: 2, Buckets: 10})
	// Same explicit layout: fine, returns the same histogram.
	if r.Histogram("h", "", HistogramOpts{Start: 0.001, Factor: 2, Buckets: 10}) == nil {
		t.Fatal("re-registration with identical layout failed")
	}
	mustPanic(t, "registered with layouts", func() {
		r.Histogram("h", "", HistogramOpts{Start: 0.001, Factor: 2, Buckets: 20})
	})

	// Zero opts fill to defaults, so explicit defaults do not conflict.
	r.Histogram("d", "", HistogramOpts{})
	if r.Histogram("d", "", HistogramOpts{Start: 1e-6, Factor: 2, Buckets: 26}) == nil {
		t.Fatal("filled-default layout conflicted with zero opts")
	}
	// Timers share the histogram namespace; a timer over an existing
	// histogram with a non-default layout is a conflict.
	r.Histogram("t", "", HistogramOpts{Start: 5, Factor: 3, Buckets: 4})
	mustPanic(t, "registered with layouts", func() { r.Timer("t", "") })
}
