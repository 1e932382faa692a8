// Command bench is the repository's benchmark: it generates each workload's
// corpus from a seed, boots the real `cmd/s2 -load … -serve` on it, drives
// /v2/search over loopback, checks every answer, and prints the end-to-end
// metrics (-trace 0) or the per-layer ledger (-trace 1) declared in
// BENCHMARK.json. See README.md in this directory.
//
//	bench -workload paper_knn -seed 1 -seconds 10 -trace 0
//	bench compare A.jsonl B.jsonl
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
)

// metricDef names one metric and its unit. The two lists below are the
// benchmark's output contract; BENCHMARK.json repeats them (a test keeps the
// two in step) and adds the regression bounds.
type metricDef struct{ name, unit string }

var endToEndMetrics = []metricDef{
	{"setup_s", "s"},
	{"p50_ms", "ms"},
	{"qps", "1/s"},
	{"cpu_ms_per_req", "ms"},
	{"rss_mb", "MiB"},
}

var perLayerMetrics = []metricDef{
	{"loadgen.late_ms_p99", "ms"},
	{"loadgen.trace_overhead_pct", "%"},
	{"s2.serial_mean_us", "us"},
	{"s2.wire_us", "us"},
	{"s2.p99_ms", "ms"},
	{"s2.qbb_p50_ms", "ms"},
	{"s2.linear_p50_ms", "ms"},
	{"s2.dtw_p50_ms", "ms"},
	{"s2.periods_p50_ms", "ms"},
	{"s2.stream_first_p50_ms", "ms"},
	{"s2.stream_final_p50_ms", "ms"},
	{"s2.add_p50_ms", "ms"},
	{"s2.ingest_per_s", "1/s"},
	{"admit.acquire_ns", "ns"},
	{"admit.queue_wait_ms_p50", "ms"},
	{"admit.shed_total", "count"},
	{"core.decode_get_ns", "ns"},
	{"core.decode_post_ns", "ns"},
	{"core.handler_self_us", "us"},
	{"core.query_us", "us"},
	{"core.query_self_us", "us"},
	{"core.query_allocs_per_op", "count"},
	{"core.query_bytes_per_op", "B"},
	{"core.gc_pause_share", "%"},
	{"obs.hub_cost_us", "us"},
	{"shard.overhead_us", "us"},
	{"shard.fanout", "count"},
	{"shard.series_imbalance", "ratio"},
	{"shard.gather_pct", "%"},
	{"vptree.search_us", "us"},
	{"vptree.search_self_us", "us"},
	{"vptree.build_s", "s"},
	{"vptree.insert_us", "us"},
	{"vptree.nodes_per_q", "count"},
	{"vptree.bounds_per_q", "count"},
	{"vptree.candidates_per_q", "count"},
	{"vptree.full_retrievals_per_q", "count"},
	{"vptree.prune_ratio", "ratio"},
	{"vptree.fraction_examined", "ratio"},
	{"vptree.kernel_evals_per_q", "count"},
	{"vptree.speedup_vs_linear", "x"},
	{"spectral.from_values_us", "us"},
	{"spectral.qctx_us", "us"},
	{"spectral.bounds_ns_per_entry_b4", "ns"},
	{"spectral.bounds_ns_per_entry_b32", "ns"},
	{"spectral.compress_us", "us"},
	{"fft.forward_real_1024_us", "us"},
	{"seqstore.get_ns", "ns"},
	{"seqstore.reads_per_q", "count"},
	{"seqstore.read_bytes_per_q", "B"},
	{"series.euclidean_1024_ns", "ns"},
	{"series.standardize_us", "us"},
	{"burstdb.qbb_us", "us"},
	{"burstdb.rows_scanned_per_q", "count"},
	{"btree.probes_per_q", "count"},
	{"burst.detect_1024_us", "us"},
	{"dtw.query_ms", "ms"},
	{"periods.query_ms", "ms"},
	{"querylog.datagen_s", "s"},
	{"ledger.gap_pct", "%"},
}

// metric is one reported value. Samples is how many measurements the value
// summarizes (0 = a single reading or a count).
type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
}

// environment is recorded with every result so two records can be told apart.
type environment struct {
	NProc      int               `json:"nproc"`
	GOMAXPROCS int               `json:"gomaxprocs"`
	GoVersion  string            `json:"go_version"`
	Series     int               `json:"series"`
	Days       int               `json:"days"`
	Shards     int               `json:"shards"`
	Admission  map[string]string `json:"admission_flags"`
}

// result is the full record of one run. The last line of standard output is
// its contract subset (correct, attempted, failed, metrics); -out appends
// the whole record as one JSON line for `bench compare`.
type result struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Trace     int               `json:"trace"`
	Seconds   int               `json:"seconds"`
	Env       environment       `json:"env"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	Notes     []string          `json:"notes,omitempty"`

	defs []metricDef
}

func newResult(w *workload, cfg config) *result {
	defs := endToEndMetrics
	if cfg.trace == 1 {
		defs = perLayerMetrics
	}
	return &result{
		Workload: w.name, Seed: cfg.seed, Trace: cfg.trace, Seconds: cfg.seconds,
		Env: environment{
			NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
			Series: w.size(cfg), Days: cfg.days(), Shards: w.shards, Admission: admissionFlags,
		},
		Metrics: map[string]metric{}, defs: defs,
	}
}

// set records a declared metric exactly once.
func (r *result) set(name string, value float64, samples int) {
	if _, dup := r.Metrics[name]; dup {
		panic("bench: metric " + name + " set twice")
	}
	for _, d := range r.defs {
		if d.name == name {
			r.Metrics[name] = metric{Value: value, Unit: d.unit, Samples: samples}
			return
		}
	}
	panic("bench: metric " + name + " is not declared")
}

// setSummary records the latency and throughput metrics of a measured
// window. The tail percentile is only noted: it is too unsteady here to carry
// a bound (see s2.p99_ms in the traced run).
func (r *result) setSummary(lat summary, qps float64, qpsSamples int) {
	r.note("latency: median over %d pass(es) of %d samples; p%g %.3f ms", lat.passes, lat.n/lat.passes, lat.tailP*100, lat.tail)
	r.set("p50_ms", lat.p50, lat.n)
	r.set("qps", qps, qpsSamples)
}

// notApplicable reports 0 for layer metrics whose layer is not on this
// workload's path (a single engine has no gather stage, and so on).
func (r *result) notApplicable(names ...string) {
	for _, n := range names {
		r.set(n, 0, 0)
	}
}

func (r *result) note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// count folds one verdict into the run's totals.
func (r *result) count(v *verdict) {
	r.Attempted += v.attempted
	r.Failed += v.failed
	if v.firstErr != nil {
		r.note("first failure: %v", v.firstErr)
	}
}

// finish checks that every declared metric was reported, finite.
func (r *result) finish() error {
	for _, d := range r.defs {
		m, ok := r.Metrics[d.name]
		if !ok {
			return fmt.Errorf("metric %s was not reported", d.name)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s is %v", d.name, m.Value)
		}
	}
	r.Correct = r.Failed == 0 && r.Attempted > 0
	return nil
}

// config is one invocation's settings.
type config struct {
	root, buildDir, outDir string
	s2                     string // path of the built binary
	seed                   int64
	seconds, trace         int
	smoke                  bool
}

// days is the series length: the paper's 1024, or 128 in the smoke tier.
func (c config) days() int {
	if c.smoke {
		return 128
	}
	return 1024
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		if err := runCompare(os.Args[2:], os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "bench compare:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", ")+" (empty = all, end-to-end then traced)")
	seed := fs.Int64("seed", 1, "seed every input is generated from")
	seconds := fs.Int("seconds", 10, "length of the measured window in seconds")
	trace := fs.Int("trace", 0, "0 = end-to-end metrics, untraced; 1 = per-layer metrics from the traced run")
	root := fs.String("root", "", "repository checkout (default: found upwards from the working directory)")
	out := fs.String("out", "", "append each run's full record to this file as one JSON line (input of `bench compare`)")
	smoke := fs.Bool("smoke", false, "smoke tier: 256 x 128 corpora and short lists, for tests")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) || fs.NArg() > 0 {
		return errors.New("usage: bench -workload NAME -seed N -seconds S -trace 0|1")
	}
	cfg := config{seed: *seed, seconds: *seconds, trace: *trace, smoke: *smoke}
	var err error
	if cfg.root, err = findRoot(*root); err != nil {
		return err
	}
	cfg.buildDir = filepath.Join(cfg.root, ".bench_build")
	cfg.outDir = filepath.Join(cfg.root, "bench", "out")
	if err := os.MkdirAll(cfg.buildDir, 0o755); err != nil {
		return err
	}
	if cfg.s2, err = buildS2(cfg.root, cfg.buildDir); err != nil {
		return err
	}

	// An interrupt cancels the run; every path below stops its server first.
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()

	type job struct {
		w     *workload
		trace int
	}
	var jobs []job
	if *name == "" {
		for _, w := range workloads {
			jobs = append(jobs, job{w, 0}, job{w, 1})
		}
	} else {
		w := findWorkload(*name)
		if w == nil {
			return fmt.Errorf("unknown workload %q (have %s)", *name, strings.Join(workloadNames(), ", "))
		}
		jobs = []job{{w, *trace}}
	}
	bad := 0
	for _, j := range jobs {
		c := cfg
		c.trace = j.trace
		res, err := runWorkload(ctx, j.w, c)
		if err != nil {
			return fmt.Errorf("%s: %w", j.w.name, err)
		}
		if err := emit(res, *out); err != nil {
			return err
		}
		if !res.Correct {
			bad++
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d run(s) had failed or wrong answers", bad)
	}
	return nil
}

// findRoot locates the checkout: the directory holding go.mod and cmd/s2.
func findRoot(flagRoot string) (string, error) {
	dir := flagRoot
	if dir == "" {
		var err error
		if dir, err = os.Getwd(); err != nil {
			return "", err
		}
	}
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "s2", "main.go")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir || flagRoot != "" {
			return "", errors.New("cannot find the repository (no cmd/s2/main.go); pass -root")
		}
		dir = parent
	}
}

// emit prints the run: a table of every metric by name and unit, then, as
// the last line, the contract's JSON object.
func emit(r *result, outPath string) error {
	fmt.Printf("# %s seed=%d seconds=%d trace=%d  %d series x %d days, shards=%d  nproc=%d GOMAXPROCS=%d %s\n",
		r.Workload, r.Seed, r.Seconds, r.Trace, r.Env.Series, r.Env.Days, r.Env.Shards,
		r.Env.NProc, r.Env.GOMAXPROCS, r.Env.GoVersion)
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.Metrics[n]
		fmt.Printf("%-36s %16.6g %-6s n=%d\n", n, m.Value, m.Unit, m.Samples)
	}
	for _, n := range r.Notes {
		fmt.Println("# note:", n)
	}
	if outPath != "" {
		line, err := json.Marshal(r)
		if err != nil {
			return err
		}
		f, err := os.OpenFile(outPath, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
		if err != nil {
			return err
		}
		if _, err := f.Write(append(line, '\n')); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	type wireMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	last := struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]wireMetric `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, map[string]wireMetric{}}
	for n, m := range r.Metrics {
		last.Metrics[n] = wireMetric{m.Value, m.Unit}
	}
	line, err := json.Marshal(last)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}
