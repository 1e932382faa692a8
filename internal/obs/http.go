package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
)

// Route mounts an application handler onto the debug surface, so callers
// can co-host serving endpoints (e.g. core's /v2/search) with the built-in
// /debug routes without obs importing them.
type Route struct {
	// Pattern is the http.ServeMux pattern, e.g. "/v2/search".
	Pattern string
	// Handler serves the pattern.
	Handler http.Handler
}

// writeJSONStatus is the single JSON-response path of the debug surface:
// every JSON endpoint serves the same Content-Type (and sets any non-200
// status before the body), so scrapers never see a charset or ordering
// inconsistency between routes.
func writeJSONStatus(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	if status != http.StatusOK {
		w.WriteHeader(status)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // best-effort debug output
}

// Handler returns the debug HTTP surface for a hub:
//
//	/debug/vars          expvar-style JSON snapshot of every metric
//	/debug/metrics       Prometheus text exposition (hand-rolled, format 0.0.4)
//	/debug/traces        recent kept traces as JSON (?id=<trace_id> resolves
//	                     one; ?stats=1 for sampler counters)
//	/debug/requests      recent request-scoped wide events (?id=<trace_id>
//	                     resolves one)
//	/debug/healthz       readiness: 200 when every registered probe passes
//	/debug/explain       explain reports on the kept traces (most recent first)
//	/debug/explain/last  the most recent of them
//	/debug/slow          retained slow queries (span tree + explain report)
//	/debug/pprof/*       the standard runtime profiles
//
// plus any extra application routes. The handler tolerates a nil hub
// (every endpoint serves empty data), so it can be mounted before
// observability is wired up.
func Handler(h *Hub, extra ...Route) http.Handler {
	mux := http.NewServeMux()
	for _, rt := range extra {
		mux.Handle(rt.Pattern, rt.Handler)
	}
	writeJSON := func(w http.ResponseWriter, v any) { writeJSONStatus(w, http.StatusOK, v) }
	mux.HandleFunc("/debug/vars", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, varsPayload(h.Registry()))
	})
	mux.HandleFunc("/debug/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		WritePrometheus(w, h.Registry().Snapshot())
	})
	mux.HandleFunc("/debug/traces", func(w http.ResponseWriter, r *http.Request) {
		// ?id= resolves one retained trace by its trace ID — the same key
		// /debug/requests takes, so either surface reaches the same request.
		if id := r.URL.Query().Get("id"); id != "" {
			rec, ok := h.Tracer().Find(id)
			if !ok {
				writeJSONStatus(w, http.StatusNotFound,
					map[string]string{"error": fmt.Sprintf("no kept trace %q", id)})
				return
			}
			writeJSON(w, rec)
			return
		}
		if r.URL.Query().Get("stats") != "" {
			writeJSON(w, map[string]any{
				"kept":    h.Tracer().Len(),
				"sampler": h.Tracer().Sampler().Stats(),
			})
			return
		}
		writeJSON(w, firstN(r, h.Tracer().Snapshot()))
	})
	mux.HandleFunc("/debug/requests", func(w http.ResponseWriter, r *http.Request) {
		if id := r.URL.Query().Get("id"); id != "" {
			ev, ok := h.RequestLog().Find(id)
			if !ok {
				writeJSONStatus(w, http.StatusNotFound,
					map[string]string{"error": fmt.Sprintf("no wide event retained for request %q", id)})
				return
			}
			writeJSON(w, ev)
			return
		}
		writeJSON(w, firstN(r, h.RequestLog().Snapshot()))
	})
	mux.HandleFunc("/debug/healthz", func(w http.ResponseWriter, _ *http.Request) {
		status := http.StatusOK
		checks := map[string]string{}
		for _, c := range h.HealthChecks() {
			if err := c.Probe(); err != nil {
				status = http.StatusServiceUnavailable
				checks[c.Name] = err.Error()
			} else {
				checks[c.Name] = "ok"
			}
		}
		body := map[string]any{"status": "ok", "checks": checks}
		if status != http.StatusOK {
			body["status"] = "unavailable"
		}
		writeJSONStatus(w, status, body)
	})
	mux.HandleFunc("/debug/explain", func(w http.ResponseWriter, _ *http.Request) {
		entries := h.Tracer().Explains()
		if entries == nil {
			entries = []ExplainEntry{}
		}
		writeJSON(w, entries)
	})
	mux.HandleFunc("/debug/explain/last", func(w http.ResponseWriter, _ *http.Request) {
		entries := h.Tracer().Explains()
		if len(entries) == 0 {
			writeJSONStatus(w, http.StatusNotFound,
				map[string]string{"error": "no explain reports recorded yet"})
			return
		}
		writeJSON(w, entries[0])
	})
	mux.HandleFunc("/debug/slow", func(w http.ResponseWriter, _ *http.Request) {
		entries := h.SlowLog().Snapshot()
		if entries == nil {
			entries = []SlowEntry{}
		}
		writeJSON(w, entries)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// firstN trims a most-recent-first listing to the ?n= newest entries, and
// gives an empty one as [] rather than null.
func firstN[T any](r *http.Request, all []T) []T {
	if n, err := strconv.Atoi(r.URL.Query().Get("n")); err == nil && n >= 0 && n < len(all) {
		return all[:n]
	}
	if all == nil {
		return []T{}
	}
	return all
}

// Serve starts the debug server on addr (e.g. "localhost:6060"; use port 0
// for an ephemeral port) and returns the server plus the bound address. The
// server runs until Close/Shutdown is called. Extra routes are mounted
// alongside the /debug surface (see Handler).
func Serve(addr string, h *Hub, extra ...Route) (*http.Server, string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, "", fmt.Errorf("obs: listen %s: %w", addr, err)
	}
	srv := &http.Server{Handler: Handler(h, extra...)}
	go srv.Serve(ln) //nolint:errcheck // Serve returns ErrServerClosed on shutdown
	return srv, ln.Addr().String(), nil
}

// varsPayload flattens a snapshot into an expvar-style name->value map.
// Histograms become {count, sum, avg, p50, p90, p99} summaries.
func varsPayload(r *Registry) map[string]any {
	out := map[string]any{}
	s := r.Snapshot()
	for _, c := range s.Counters {
		out[c.Name] = c.Value
	}
	for _, g := range s.Gauges {
		out[g.Name] = g.Value
	}
	for _, h := range s.Histograms {
		summary := map[string]any{"count": h.Count, "sum": h.Sum}
		if h.Count > 0 {
			summary["avg"] = h.Sum / float64(h.Count)
			summary["p50"] = quantileFromSnapshot(h, 0.5)
			summary["p90"] = quantileFromSnapshot(h, 0.9)
			summary["p99"] = quantileFromSnapshot(h, 0.99)
		}
		out[h.Name] = summary
	}
	return out
}

// quantileFromSnapshot returns an upper-bound estimate of the q-quantile
// (0 ≤ q ≤ 1) of a frozen histogram: the smallest bucket bound whose
// cumulative count reaches q·Count. It returns 0 with no observations and
// +Inf when the quantile falls in the overflow bucket.
func quantileFromSnapshot(h HistogramSnapshot, q float64) float64 {
	if h.Count == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(h.Count)))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for _, b := range h.Buckets {
		cum += b.Count
		if cum >= rank {
			return b.UpperBound
		}
	}
	return math.Inf(1)
}

// WritePrometheus renders a snapshot in the Prometheus text exposition
// format: counters get a `_total`-as-named value, histograms emit cumulative
// `_bucket{le=...}` series plus `_sum`, `_count` and summary-style
// `{quantile=...}` series for p50/p90/p99 (bucket-upper-bound estimates, so
// dashboards get quantiles without reconstructing them from buckets).
func WritePrometheus(w io.Writer, s Snapshot) {
	for _, c := range s.Counters {
		writeHeader(w, c.Name, c.Help, "counter")
		fmt.Fprintf(w, "%s %d\n", c.Name, c.Value)
	}
	for _, g := range s.Gauges {
		writeHeader(w, g.Name, g.Help, "gauge")
		fmt.Fprintf(w, "%s %s\n", g.Name, formatFloat(g.Value))
	}
	for _, h := range s.Histograms {
		writeHeader(w, h.Name, h.Help, "histogram")
		var cum int64
		for _, b := range h.Buckets {
			cum += b.Count
			fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", h.Name, formatFloat(b.UpperBound), cum)
		}
		cum += h.Overflow
		fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", h.Name, cum)
		if h.Count > 0 {
			for _, q := range [...]float64{0.5, 0.9, 0.99} {
				fmt.Fprintf(w, "%s{quantile=%q} %s\n",
					h.Name, formatFloat(q), formatFloat(quantileFromSnapshot(h, q)))
			}
		}
		fmt.Fprintf(w, "%s_sum %s\n", h.Name, formatFloat(h.Sum))
		fmt.Fprintf(w, "%s_count %d\n", h.Name, h.Count)
	}
}

func writeHeader(w io.Writer, name, help, kind string) {
	if help != "" {
		fmt.Fprintf(w, "# HELP %s %s\n", name, help)
	}
	fmt.Fprintf(w, "# TYPE %s %s\n", name, kind)
}

func formatFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatFloat(v, 'f', -1, 64)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
