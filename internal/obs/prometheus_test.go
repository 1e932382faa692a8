package obs

import (
	"bufio"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"
)

// parseExposition splits a Prometheus text exposition into sample lines
// (name{labels} -> value), skipping comments.
func parseExposition(t *testing.T, text string) map[string]float64 {
	t.Helper()
	out := map[string]float64{}
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		idx := strings.LastIndexByte(line, ' ')
		if idx < 0 {
			t.Fatalf("malformed exposition line %q", line)
		}
		v, err := strconv.ParseFloat(line[idx+1:], 64)
		if err != nil {
			t.Fatalf("bad value in %q: %v", line, err)
		}
		out[line[:idx]] = v
	}
	return out
}

// TestPrometheusHistogramConformance checks the invariants scrapers rely on:
// cumulative buckets ending at +Inf == _count, a _sum series, and p50/p90/p99
// quantile series consistent with the bucket data.
func TestPrometheusHistogramConformance(t *testing.T) {
	t.Parallel()
	r := NewRegistry()
	h := r.Histogram("req_seconds", "request latency", HistogramOpts{Start: 0.001, Factor: 2, Buckets: 8})
	var sum float64
	// 100 observations at 1ms..100ms.
	for i := 1; i <= 100; i++ {
		v := float64(i) * 0.001
		h.Observe(v)
		sum += v
	}
	var sb strings.Builder
	WritePrometheus(&sb, r.Snapshot())
	text := sb.String()
	samples := parseExposition(t, text)

	count, ok := samples["req_seconds_count"]
	if !ok || count != 100 {
		t.Fatalf("req_seconds_count = %v, %v", count, ok)
	}
	gotSum, ok := samples["req_seconds_sum"]
	if !ok || math.Abs(gotSum-sum) > 1e-9 {
		t.Errorf("req_seconds_sum = %v, want %v", gotSum, sum)
	}
	inf, ok := samples[`req_seconds_bucket{le="+Inf"}`]
	if !ok || inf != count {
		t.Errorf("+Inf bucket = %v, want _count %v", inf, count)
	}
	// Buckets must be cumulative (non-decreasing in bound order).
	var prev float64
	for _, bound := range []string{"0.001", "0.002", "0.004", "0.008", "0.016", "0.032", "0.064", "0.128"} {
		v, ok := samples[fmt.Sprintf("req_seconds_bucket{le=%q}", bound)]
		if !ok {
			t.Fatalf("missing bucket le=%s in:\n%s", bound, text)
		}
		if v < prev {
			t.Errorf("bucket le=%s = %v decreased from %v", bound, v, prev)
		}
		prev = v
	}

	// Quantile series exist and are bucket-upper-bound estimates: the p50
	// of 1..100ms lands in the (32ms, 64ms] bucket, p90/p99 in (64, 128].
	q50, ok := samples[`req_seconds{quantile="0.5"}`]
	if !ok || q50 != 0.064 {
		t.Errorf(`quantile 0.5 = %v, want 0.064`, q50)
	}
	for _, q := range []string{"0.9", "0.99"} {
		v, ok := samples[fmt.Sprintf("req_seconds{quantile=%q}", q)]
		if !ok || v != 0.128 {
			t.Errorf("quantile %s = %v, want 0.128", q, v)
		}
	}
	// Quantiles are monotone in q.
	if !(samples[`req_seconds{quantile="0.5"}`] <= samples[`req_seconds{quantile="0.9"}`] &&
		samples[`req_seconds{quantile="0.9"}`] <= samples[`req_seconds{quantile="0.99"}`]) {
		t.Error("quantile series not monotone")
	}
}

// TestPrometheusEmptyHistogramOmitsQuantiles checks that a histogram with no
// observations exports buckets/_sum/_count but no quantile series (a 0-count
// quantile is meaningless).
func TestPrometheusEmptyHistogramOmitsQuantiles(t *testing.T) {
	t.Parallel()
	r := NewRegistry()
	r.Histogram("idle_seconds", "", HistogramOpts{Start: 1, Factor: 2, Buckets: 2})
	var sb strings.Builder
	WritePrometheus(&sb, r.Snapshot())
	text := sb.String()
	if strings.Contains(text, "quantile") {
		t.Errorf("empty histogram exported quantiles:\n%s", text)
	}
	samples := parseExposition(t, text)
	if samples["idle_seconds_count"] != 0 || samples["idle_seconds_sum"] != 0 {
		t.Errorf("empty histogram sum/count: %v", samples)
	}
}

// TestDebugExplainAndSlowEndpoints exercises the new debug surface.
func TestDebugExplainAndSlowEndpoints(t *testing.T) {
	t.Parallel()
	h := NewHub()
	srv := httptest.NewServer(Handler(h))
	defer srv.Close()

	// Empty: /debug/explain/last 404s, lists serve [].
	code, body := get(t, srv, "/debug/explain/last")
	if code != http.StatusNotFound || !strings.Contains(body, "no explain reports") {
		t.Errorf("/debug/explain/last empty: %d %s", code, body)
	}
	for _, path := range []string{"/debug/explain", "/debug/slow"} {
		code, body = get(t, srv, path)
		if code != http.StatusOK || strings.TrimSpace(body) != "[]" {
			t.Errorf("%s empty: %d %q", path, code, body)
		}
	}

	// Populate: one explained slow query. Its kept trace is where both
	// /debug/explain and /debug/slow find the report.
	h.Slow.SetThreshold(time.Nanosecond)
	h.Slow.SetLogger(slog.New(slog.NewTextHandler(io.Discard, nil)))
	tr := h.Traces.StartTrace("similar_queries")
	tr.Attach(map[string]string{"op": "similar_queries"})
	time.Sleep(time.Millisecond)
	tr.Finish()

	code, body = get(t, srv, "/debug/explain/last")
	if code != http.StatusOK || !strings.Contains(body, "similar_queries") {
		t.Errorf("/debug/explain/last: %d %s", code, body)
	}
	code, body = get(t, srv, "/debug/explain")
	if code != http.StatusOK || !strings.Contains(body, `"id"`) {
		t.Errorf("/debug/explain: %d %s", code, body)
	}
	code, body = get(t, srv, "/debug/slow")
	if code != http.StatusOK || !strings.Contains(body, "duration_ms") ||
		!strings.Contains(body, "similar_queries") {
		t.Errorf("/debug/slow: %d %s", code, body)
	}
}
