// Command s2 is the reproduction of the paper's S2 ("Similarity Tool", §7.5):
// an interactive explorer over a query-log database offering the tool's
// three functions —
//
//	similar <query> [k]      similarity search over the compressed features
//	periods <query>          automatic important-period discovery
//	bursts  <query> [short]  burst detection (long- or short-term windows)
//	qbb     <query> [k]      'query-by-burst' search
//	explain <cmd> <query>    run similar/qbb with a full EXPLAIN report
//	sql     <statement>      SQL over the burst-feature table (fig. 18)
//	show    <query>          demand-curve sparkline + summary
//	stats                    observability snapshot (counters + latencies)
//	list [prefix]            list known query terms
//	help / quit
//
// The database is generated on startup: the paper's exemplar queries plus a
// configurable number of background series. With -shards N (N > 1) the
// database is partitioned across N independent engine shards served
// scatter-gather (see docs/sharding.md): searches fan out to every shard
// concurrently and merge under the canonical ordering, so results are
// identical to the single engine's. Per-series commands (periods, bursts,
// approx) route to the owning shard; whole-database surfaces with no
// cross-shard merge (sql, common, -save, -db) need the unpartitioned
// engine and say so. With -debug-addr a debug HTTP
// server exposes /debug/vars, /debug/metrics (Prometheus text format),
// /debug/traces, /debug/requests (one wide event per request),
// /debug/healthz, /debug/explain (the explain reports of the kept traces,
// e.g. after the REPL's explain), /debug/slow and /debug/pprof (see
// docs/observability.md), plus the /v2/search JSON endpoint serving every
// search family concurrently under the engine's read lock (see
// docs/api.md), behind admission control (-max-inflight,
// -max-queue, -queue-wait) that sheds load with 429/503 when saturated.
// With -slow-query, queries over the threshold are logged through log/slog
// and retained with their span tree and explain report at /debug/slow.
//
// Throughput and latency are measured from outside, over /v2/search, by the
// repository benchmark (bench/README.md, make bench-pair).
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"math"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/admit"
	"repro/internal/benchutil"
	"repro/internal/core"
	"repro/internal/minisql"
	"repro/internal/obs"
	"repro/internal/querylog"
	"repro/internal/shard"
	"repro/internal/sketch"
)

func main() {
	// main defers nothing itself: run owns every resource so that error
	// paths (load failures, save failures) still close the engine instead
	// of leaking it through os.Exit.
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "s2:", err)
		os.Exit(1)
	}
}

func run() error {
	n := flag.Int("n", 200, "background series in the database")
	days := flag.Int("days", querylog.DefaultLength, "days per series")
	seed := flag.Int64("seed", 1, "PRNG seed")
	budget := flag.Int("budget", 16, "compression budget c (2c+1 doubles per sequence)")
	shards := flag.Int("shards", 1, "partition the database across N engine shards served scatter-gather (1 = single engine)")
	load := flag.String("load", "", "load a dataset (.csv, or a genlog binary) instead of generating one")
	db := flag.String("db", "", "open a saved engine directory (see -save) instead of building")
	save := flag.String("save", "", "after building, save the engine state to this directory")
	debugAddr := flag.String("debug-addr", "", "serve /v2/search and /debug/{vars,metrics,traces,requests,healthz,explain,slow,pprof} on this address (e.g. localhost:6060); /debug/explain reads the kept traces")
	slowQuery := flag.Duration("slow-query", 0, "log and retain queries slower than this (e.g. 50ms; 0 disables)")
	maxInFlight := flag.Int("max-inflight", 64, "search requests served concurrently before queueing")
	maxQueue := flag.Int("max-queue", 0, "search requests allowed to queue for a slot (default 2x -max-inflight)")
	queueWait := flag.Duration("queue-wait", time.Second, "longest a queued search request waits before being shed with 503")
	traceSample := flag.Float64("trace-sample", 1, "fraction of healthy traces the tail sampler keeps (slow/errored/shed traces are always kept)")
	serve := flag.Bool("serve", false, "serve until interrupted instead of reading REPL commands from stdin (requires -debug-addr)")
	flag.Parse()
	if err := checkServingFlags(*traceSample, *maxInFlight, *maxQueue, *queueWait, *slowQuery); err != nil {
		return err
	}

	fmt.Printf("S2 — query-log similarity tool (paper §7.5 reproduction)\n")

	hub := obs.NewHub()
	if *slowQuery > 0 {
		hub.Slow.SetThreshold(*slowQuery)
		slog.Info("slow-query log enabled", "threshold", slowQuery.String())
	}
	// Tail-based sampling: the decision is made at trace end, keeping every
	// slow (>= -slow-query), errored, aborted and shed trace and -trace-sample
	// of the healthy rest. One latency knob: the slow-log threshold IS the
	// sampler's always-keep signal.
	hub.Traces.SetSampler(obs.NewTailSampler(*traceSample, hub.Slow))

	began := time.Now()
	engine, loadTime, err := buildEngine(*db, *load, *n, *days, *seed, *budget, *shards, hub)
	if err != nil {
		return err
	}
	defer engine.Close()

	// The debug server starts once the engine exists so the search endpoint
	// can serve against it; search requests run under the engine's read
	// lock, so they interleave safely with REPL commands.
	if *debugAddr != "" {
		ac := admit.New(admit.Options{
			MaxInFlight: *maxInFlight, MaxQueue: *maxQueue, MaxWait: *queueWait,
		}, hub.Registry())
		// Shed requests land in the same wide-event ring as served ones, so
		// /debug/requests tells the whole admission story; /debug/healthz
		// flips to 503 while the controller would shed with queue-full.
		ac.SetRequestLog(hub.RequestLog())
		// The middleware owns each request's trace: it extracts or mints
		// W3C trace context, traces admission (shed included) and echoes
		// traceparent; the engine joins via the request context.
		ac.SetTracer(hub.Traces)
		hub.SetHealthChecks(
			obs.HealthCheck{Name: "engine", Probe: func() error {
				if engine.Len() == 0 {
					return fmt.Errorf("engine has no indexed series")
				}
				return nil
			}},
			obs.HealthCheck{Name: "admission", Probe: func() error {
				if ac.Saturated() {
					return fmt.Errorf("admission saturated: %d in flight, %d queued", ac.InFlight(), ac.Waiting())
				}
				return nil
			}},
		)
		srv, addr, err := obs.Serve(*debugAddr, hub,
			obs.Route{Pattern: "/v2/search", Handler: admit.Middleware(ac, core.V2SearchHandler(engine))})
		if err != nil {
			return err
		}
		defer srv.Close()
		slog.Info("debug server listening",
			"metrics", "http://"+addr+"/debug/metrics",
			"health", "http://"+addr+"/debug/healthz",
			"search", "http://"+addr+"/v2/search?q=<query>&k=5")
	}

	if *save != "" {
		if err := saveEngine(engine, *save); err != nil {
			return err
		}
		fmt.Printf("engine state saved to %s (reopen with -db %s)\n", *save, *save)
	}
	if *serve {
		if *debugAddr == "" {
			return fmt.Errorf("-serve requires -debug-addr")
		}
		// Which sketch kernel the CPU got goes in the server log, so that a
		// benchmark record says which path it measured.
		fmt.Printf("sketch kernel: %s\n", sketch.Kernel())
		fmt.Printf("ready: %s; serving until SIGINT/SIGTERM\n", setupSummary(engine, time.Since(began), loadTime))
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
		return nil
	}
	fmt.Printf("ready: %s. Type 'help'.\n", setupSummary(engine, time.Since(began), loadTime))
	repl(engine, hub)
	return nil
}

// saveEngine is -save: the unpartitioned engine's state into dir, which may
// be the directory -db opened it from.
func saveEngine(s core.Searcher, dir string) error {
	e, ok := s.(*core.Engine)
	if !ok {
		return fmt.Errorf("-save needs the unpartitioned engine (run without -shards)")
	}
	if err := e.Save(dir); err != nil {
		return fmt.Errorf("save: %w", err)
	}
	return nil
}

// checkServingFlags refuses out-of-range serving and telemetry flags before
// anything is built, rather than letting the sampler or the admission
// controller turn them into a default. -max-queue 0 is the documented
// default (2x -max-inflight) and -slow-query 0 turns the log off.
func checkServingFlags(traceSample float64, maxInFlight, maxQueue int, queueWait, slowQuery time.Duration) error {
	switch {
	case !(traceSample >= 0 && traceSample <= 1):
		return fmt.Errorf("-trace-sample %v: need a fraction in [0, 1]", traceSample)
	case maxInFlight < 1:
		return fmt.Errorf("-max-inflight %d: need at least 1", maxInFlight)
	case maxQueue < 0:
		return fmt.Errorf("-max-queue %d: need at least 0 (0 = 2x -max-inflight)", maxQueue)
	case queueWait <= 0:
		return fmt.Errorf("-queue-wait %v: need a positive duration", queueWait)
	case slowQuery < 0:
		return fmt.Errorf("-slow-query %v: need at least 0 (0 disables)", slowQuery)
	}
	return nil
}

// buildEngine opens, loads or generates the database. On every error path
// nothing is left open (the engine only escapes on success). With shards > 1
// the dataset is partitioned via shard.NewFromSource; saved engine
// directories are single-engine snapshots, so -db refuses a shard count.
// A genlog binary is not loaded at all: the engine reads its rows from the
// file (core.FileSource), which it closes with itself. load is how long it
// took to have the series at hand — to open the file, to parse the CSV or to
// generate the series (for -db, the whole open).
func buildEngine(db, path string, n, days int, seed int64, budget, shards int, hub *obs.Hub) (_ core.Searcher, load time.Duration, err error) {
	// Refuse out-of-range flags before building anything: the generator
	// panics on days < 1 or n < 0, and a budget or shard count below 1
	// would silently turn into a default.
	switch {
	case shards < 1:
		return nil, 0, fmt.Errorf("-shards %d: need at least 1", shards)
	case budget < 1:
		return nil, 0, fmt.Errorf("-budget %d: need at least 1", budget)
	case db == "" && path == "" && days < 1:
		return nil, 0, fmt.Errorf("-days %d: need at least 1", days)
	case db == "" && path == "" && n < 0:
		return nil, 0, fmt.Errorf("-n %d: need at least 0", n)
	}
	began := time.Now()
	if db != "" {
		if shards > 1 {
			return nil, 0, fmt.Errorf("-db opens a single-engine snapshot, which cannot yet load into a partition: " +
				"shard rebalancing / partitioned snapshot loading is the open ROADMAP item " +
				"\"Shard rebalancing and elastic repartitioning\" — until it lands, either drop -shards " +
				"to serve the snapshot on a single engine, or rebuild the partitioned dataset from raw input")
		}
		fmt.Printf("opening saved engine at %s...\n", db)
		e, err := core.LoadEngine(db, core.Config{Obs: hub})
		return e, time.Since(began), err
	}
	var src core.Source
	switch {
	case path != "" && strings.HasSuffix(path, ".csv"):
		fmt.Printf("loading database from %s...\n", path)
		data, err := querylog.LoadCSVFile(path, querylog.DefaultStart)
		if err != nil {
			return nil, 0, err
		}
		src = core.SliceSource(data)
	case path != "":
		fmt.Printf("opening database %s...\n", path)
		st, names, err := querylog.OpenBinary(path)
		if err != nil {
			return nil, 0, err
		}
		src = core.FileSource(st, names, querylog.DefaultStart)
	default:
		fmt.Printf("building database: %d exemplars + %d background series x %d days...\n",
			len(querylog.ExemplarNames()), n, days)
		g := querylog.NewGenerator(querylog.DefaultStart, days, seed)
		src = core.SliceSource(append(g.Exemplars(), g.Dataset(n)...))
	}
	load = time.Since(began)
	s, err := shard.NewFromSource(src, core.Config{Budget: budget, Shards: shards, Obs: hub})
	if err != nil {
		return nil, 0, err
	}
	if se, ok := s.(*shard.ShardedEngine); ok {
		fmt.Printf("partitioned across %d shards: sizes %v\n", se.Shards(), se.ShardSizes())
	}
	return s, load, nil
}

// setupSummary says where a boot went: the series indexed, the time since the
// process began setting up, and of it the load (see buildEngine) and the
// engines' own derive and index stages — shards build one after another, so
// theirs add up.
func setupSummary(s core.Searcher, total, load time.Duration) string {
	var derive, index time.Duration
	switch v := s.(type) {
	case *core.Engine:
		derive, index = v.BuildTimes()
	case *shard.ShardedEngine:
		for sh := 0; sh < v.Shards(); sh++ {
			if e := v.Engine(sh); e != nil {
				d, i := e.BuildTimes()
				derive, index = derive+d, index+i
			}
		}
	}
	return fmt.Sprintf("%d series indexed in %.2fs (load %.2fs, derive %.2fs, index %.2fs)",
		s.Len(), total.Seconds(), load.Seconds(), derive.Seconds(), index.Seconds())
}

// ownerEngine resolves the concrete engine holding sequence id — the engine
// itself in single-engine mode, the owning shard otherwise — plus the id in
// that engine's local space. Per-series commands that need engine-only
// surfaces (periods, bursts, approx) run there: a series' periodogram,
// burst detection and reconstruction depend only on that one series, so the
// owner shard's answer is the unsharded answer.
func ownerEngine(s core.Searcher, id int) (*core.Engine, int, error) {
	switch v := s.(type) {
	case *core.Engine:
		return v, id, nil
	case *shard.ShardedEngine:
		sh, local, ok := v.Owner(id)
		if !ok {
			return nil, 0, fmt.Errorf("unknown sequence id %d", id)
		}
		return v.Engine(sh), local, nil
	default:
		return nil, 0, fmt.Errorf("unsupported engine type %T", s)
	}
}

// requireWholeEngine gates commands whose answer spans the whole database
// without a cross-shard merge (sql's burst table, the common-periods set
// periodogram) on the unpartitioned engine.
func requireWholeEngine(s core.Searcher, cmd string) (*core.Engine, error) {
	if e, ok := s.(*core.Engine); ok {
		return e, nil
	}
	return nil, fmt.Errorf("%s needs the unpartitioned engine (run without -shards)", cmd)
}

// repl runs the interactive loop until EOF or quit.
func repl(engine core.Searcher, hub *obs.Hub) {
	sc := bufio.NewScanner(os.Stdin)
	for {
		fmt.Print("s2> ")
		if !sc.Scan() {
			break
		}
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if line == "quit" || line == "exit" {
			break
		}
		if line == "stats" {
			writeStats(os.Stdout, hub)
			writeIndexStats(os.Stdout, engine)
			continue
		}
		if err := dispatch(engine, line); err != nil {
			fmt.Println("error:", err)
		}
	}
}

// writeIndexStats prints, for the engine or each live shard, what its
// similarity searches have scanned: how many ran, the blocks and bounds they
// ran the kernel on, and the share of the bounds it abandoned unfinished.
func writeIndexStats(w io.Writer, s core.Searcher) {
	var engines []*core.Engine
	switch v := s.(type) {
	case *core.Engine:
		engines = []*core.Engine{v}
	case *shard.ShardedEngine:
		for sh := 0; sh < v.Shards(); sh++ {
			engines = append(engines, v.Engine(sh))
		}
	}
	for i, e := range engines {
		if e == nil {
			continue
		}
		ts := e.ScanTotals()
		share := 0.0
		if ts.Bounds > 0 {
			share = 100 * float64(ts.Abandoned) / float64(ts.Bounds)
		}
		fmt.Fprintf(w, "  scan %d: %d rows, %d searches, %d blocks, %d bounds (%.1f%% abandoned)\n",
			i, e.Len(), ts.Searches, ts.Blocks, ts.Bounds, share)
	}
}

// writeStats renders the registry snapshot as one listing sorted by metric
// name across all kinds, so output is deterministic run to run: counters and
// gauges as single values, histograms as count/mean/p50/p99 summaries. The
// first line names the sketch kernel the numbers were produced on.
func writeStats(w io.Writer, hub *obs.Hub) {
	fmt.Fprintf(w, "  sketch kernel: %s\n", sketch.Kernel())
	snap := hub.Registry().Snapshot()
	lines := map[string]string{}
	for _, c := range snap.Counters {
		lines[c.Name] = fmt.Sprintf("  %-36s %12d\n", c.Name, c.Value)
	}
	for _, g := range snap.Gauges {
		lines[g.Name] = fmt.Sprintf("  %-36s %12.3f\n", g.Name, g.Value)
	}
	for _, h := range snap.Histograms {
		if h.Count == 0 {
			lines[h.Name] = fmt.Sprintf("  %-36s %12s\n", h.Name, "(empty)")
			continue
		}
		mean := h.Sum / float64(h.Count)
		lines[h.Name] = fmt.Sprintf("  %-36s count=%-6d mean=%-10s p50<=%-10s p99<=%s\n",
			h.Name, h.Count, formatSeconds(mean),
			formatSeconds(histQuantile(h, 0.5)), formatSeconds(histQuantile(h, 0.99)))
	}
	if len(lines) == 0 {
		fmt.Fprintln(w, "  no metrics recorded yet")
		return
	}
	names := make([]string, 0, len(lines))
	for name := range lines {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprint(w, lines[name])
	}
	if n := hub.Tracer().Len(); n > 0 {
		fmt.Fprintf(w, "  (%d traces retained; see /debug/traces with -debug-addr)\n", n)
	}
	if sl := hub.SlowLog(); sl.Enabled() {
		fmt.Fprintf(w, "  (%d slow queries over %s; see /debug/slow)\n",
			sl.Total(), sl.Threshold())
	}
}

// histQuantile is the bucket-bound quantile over a frozen histogram.
func histQuantile(h obs.HistogramSnapshot, q float64) float64 {
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

// formatSeconds prints a seconds-scale value at a readable unit. Histograms
// of non-time quantities (e.g. k) print as plain numbers.
func formatSeconds(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "inf"
	case v >= 1:
		return fmt.Sprintf("%.3g", v)
	case v >= 1e-3:
		return fmt.Sprintf("%.3gms", v*1e3)
	default:
		return fmt.Sprintf("%.3gus", v*1e6)
	}
}

// dispatch parses one command line. The query term may contain spaces; an
// optional trailing integer is the k parameter. Search commands run through
// the unified Query surface so they work identically on single and sharded
// engines; per-series analytics route to the owning shard's engine.
func dispatch(e core.Searcher, line string) error {
	fields := strings.Fields(line)
	cmd := fields[0]
	rest := fields[1:]
	if cmd == "sql" {
		eng, err := requireWholeEngine(e, "sql")
		if err != nil {
			return err
		}
		return runSQL(eng, strings.TrimSpace(strings.TrimPrefix(line, "sql")))
	}
	if cmd == "simperiod" {
		return runSimPeriod(e, rest)
	}
	if cmd == "explain" {
		return runExplain(e, rest, os.Stdout)
	}
	k := 5
	variant := ""
	if len(rest) > 0 {
		if v, err := strconv.Atoi(rest[len(rest)-1]); err == nil {
			k = v
			rest = rest[:len(rest)-1]
		} else if rest[len(rest)-1] == "short" || rest[len(rest)-1] == "long" {
			variant = rest[len(rest)-1]
			rest = rest[:len(rest)-1]
		}
	}
	name := strings.Join(rest, " ")

	switch cmd {
	case "help":
		fmt.Println(`commands:
  similar <query> [k]       k most similar demand patterns
  periods <query>           significant periods (99.99% confidence)
  bursts  <query> [short]   detected bursts (long-term default)
  qbb     <query> [k]       query-by-burst: similar burst patterns
  explain similar|qbb <query> [k]  run the search with a full EXPLAIN report
  simperiod <query> <days>  similarity restricted to one period band (±5%)
  common  <query> [k]       periods shared by the query's k nearest neighbours
  sql     <statement>       e.g. sql SELECT * FROM bursts WHERE startDate < 300 AND endDate > 280
  show    <query>           demand sparkline and summary
  approx  <query>           compressed-representation quality (best-k reconstruction)
  stats                     observability snapshot (counters + latency histograms)
  list    [prefix]          known query terms
  quit`)
		return nil
	case "list":
		names := make([]string, 0, e.Len())
		for id := 0; id < e.Len(); id++ {
			nm := e.Name(id)
			if name == "" || strings.HasPrefix(nm, name) {
				names = append(names, nm)
			}
		}
		sort.Strings(names)
		for i, nm := range names {
			if i >= 40 {
				fmt.Printf("  ... and %d more\n", len(names)-40)
				break
			}
			fmt.Println(" ", nm)
		}
		return nil
	}

	id, ok := e.Lookup(name)
	if !ok {
		return fmt.Errorf("unknown query %q (try 'list')", name)
	}
	switch cmd {
	case "similar":
		resp, err := e.Query(context.Background(), core.Request{Kind: core.KindSimilarID, ID: id, K: k})
		if err != nil {
			return err
		}
		for i, r := range resp.Neighbors {
			fmt.Printf("  %2d. %-24s dist=%.2f\n", i+1, r.Name, r.Dist)
		}
		st := resp.Stats
		fmt.Printf("  (examined %d of %d full sequences; %d sketch-skips, %d lb-prunes of %d bounds)\n",
			st.FullRetrievals, e.Len(), st.SketchSkips, st.LBPrunes, st.BoundsComputed)
	case "periods":
		eng, local, err := ownerEngine(e, id)
		if err != nil {
			return err
		}
		det, err := eng.PeriodsOf(local)
		if err != nil {
			return err
		}
		if len(det.Periods) == 0 {
			fmt.Printf("  no significant periods (threshold %.4f)\n", det.Threshold)
			return nil
		}
		for i, p := range det.Top(5) {
			fmt.Printf("  P%d = %.2f days (power %.2f)\n", i+1, p.Length, p.Power)
		}
	case "bursts":
		w := core.Long
		if variant == "short" {
			w = core.Short
		}
		s, err := e.Series(id)
		if err != nil {
			return err
		}
		eng, _, err := ownerEngine(e, id)
		if err != nil {
			return err
		}
		det, err := eng.Bursts(s.Values, w)
		if err != nil {
			return err
		}
		if len(det.Bursts) == 0 {
			fmt.Println("  no bursts")
			return nil
		}
		for _, b := range det.Bursts {
			fmt.Printf("  [%s .. %s] avg=%.2f\n",
				s.DateOf(b.Start).Format("2006-01-02"),
				s.DateOf(b.End).Format("2006-01-02"), b.Avg)
		}
	case "common":
		eng, err := requireWholeEngine(e, "common")
		if err != nil {
			return err
		}
		resp, err := eng.Query(context.Background(), core.Request{Kind: core.KindSimilarID, ID: id, K: k})
		if err != nil {
			return err
		}
		ids := []int{id}
		fmt.Printf("  set: %s", eng.Name(id))
		for _, r := range resp.Neighbors {
			ids = append(ids, r.ID)
			fmt.Printf(", %s", r.Name)
		}
		fmt.Println()
		det, err := eng.PeriodsOfSet(ids)
		if err != nil {
			return err
		}
		if len(det.Periods) == 0 {
			fmt.Println("  no shared significant periods")
			return nil
		}
		for i, p := range det.Top(5) {
			fmt.Printf("  P%d = %.2f days (power %.2f, p-value %.2e)\n", i+1, p.Length, p.Power, p.PValue)
		}
	case "qbb":
		resp, err := e.Query(context.Background(),
			core.Request{Kind: core.KindBurstID, ID: id, K: k, Window: core.Long})
		if err != nil {
			return err
		}
		if len(resp.Matches) == 0 {
			fmt.Println("  no burst-pattern matches")
			return nil
		}
		for i, m := range resp.Matches {
			fmt.Printf("  %2d. %-24s BSim=%.3f\n", i+1, m.Name, m.Score)
		}
	case "show":
		s, err := e.Series(id)
		if err != nil {
			return err
		}
		fmt.Printf("  %s\n", s)
		fmt.Printf("  |%s|\n", benchutil.Sparkline(s.Values, 96))
	case "approx":
		z, err := e.StandardizedValues(id)
		if err != nil {
			return err
		}
		eng, local, err := ownerEngine(e, id)
		if err != nil {
			return err
		}
		rec, err := eng.Reconstruct(local)
		if err != nil {
			return err
		}
		fmt.Printf("  original      |%s|\n", benchutil.Sparkline(z, 96))
		fmt.Printf("  reconstructed |%s|\n", benchutil.Sparkline(rec.Values, 96))
		fmt.Printf("  E = %.2f using %d coefficients\n", rec.Error, rec.Coefficients)
	default:
		return fmt.Errorf("unknown command %q (try 'help')", cmd)
	}
	return nil
}

// runExplain handles `explain similar|qbb <query> [k]`: it runs the search
// through Query with Request.Explain set and renders the report (the scan's
// blocks and bounds, the filter's and the refine's work, phase wall times;
// one per shard under -shards). The report rides on the request's trace, which the tail
// sampler always keeps, so /debug/explain/last serves it.
func runExplain(e core.Searcher, args []string, w io.Writer) error {
	if len(args) < 2 {
		return fmt.Errorf("usage: explain similar|qbb <query> [k]")
	}
	req := core.Request{K: 5, Window: core.Long, Explain: true}
	switch args[0] {
	case "similar":
		req.Kind = core.KindSimilarID
	case "qbb":
		req.Kind = core.KindBurstID
	default:
		return fmt.Errorf("explain supports 'similar' and 'qbb', not %q", args[0])
	}
	rest := args[1:]
	if v, err := strconv.Atoi(rest[len(rest)-1]); err == nil {
		req.K = v
		rest = rest[:len(rest)-1]
	}
	name := strings.Join(rest, " ")
	id, ok := e.Lookup(name)
	if !ok {
		return fmt.Errorf("unknown query %q (try 'list')", name)
	}
	req.ID = id
	resp, err := e.Query(context.Background(), req)
	if err != nil {
		return err
	}
	for i, r := range resp.Neighbors {
		fmt.Fprintf(w, "  %2d. %-24s dist=%.2f\n", i+1, r.Name, r.Dist)
	}
	for i, m := range resp.Matches {
		fmt.Fprintf(w, "  %2d. %-24s BSim=%.3f\n", i+1, m.Name, m.Score)
	}
	resp.Explain.Render(w)
	return nil
}

// runSimPeriod handles `simperiod <query> <days>`: the §7.5 focused search
// over a single period band, through the unified Query surface so it
// scatters under -shards.
func runSimPeriod(e core.Searcher, args []string) error {
	if len(args) < 2 {
		return fmt.Errorf("usage: simperiod <query> <period-days>")
	}
	days, err := strconv.ParseFloat(args[len(args)-1], 64)
	if err != nil || days <= 0 {
		return fmt.Errorf("bad period %q", args[len(args)-1])
	}
	name := strings.Join(args[:len(args)-1], " ")
	id, ok := e.Lookup(name)
	if !ok {
		return fmt.Errorf("unknown query %q (try 'list')", name)
	}
	resp, err := e.Query(context.Background(),
		core.Request{Kind: core.KindSimilarPeriods, ID: id, Periods: []float64{days}, RelTol: 0.05, K: 5})
	if err != nil {
		return err
	}
	fmt.Printf("  neighbours of %q in the %.1f-day band:\n", name, days)
	for i, r := range resp.Neighbors {
		fmt.Printf("  %2d. %-24s band-dist=%.3f\n", i+1, r.Name, r.Dist)
	}
	return nil
}

// runSQL executes a statement against the long-window burst-feature table.
func runSQL(e *core.Engine, stmt string) error {
	if stmt == "" {
		return fmt.Errorf("usage: sql SELECT ... FROM bursts ...")
	}
	res, err := minisql.Run(e.BurstDB(core.Long), stmt)
	if err != nil {
		return err
	}
	fmt.Printf("  plan: %v (scanned %d rows)\n", res.Plan, res.Scanned)
	for i, r := range res.Records {
		if i >= 20 {
			fmt.Printf("  ... and %d more rows\n", len(res.Records)-20)
			break
		}
		fmt.Printf("  %-24s start=%4d end=%4d avg=%.2f\n",
			e.Name(int(r.SeqID)), r.Start, r.End, r.Avg)
	}
	fmt.Printf("  (%d rows)\n", len(res.Records))
	return nil
}
