// Command benchrec records and compares performance snapshots of the
// engine, tracking the perf trajectory across commits. Records are
// schema-versioned JSON (BENCH_<label>.json) produced by standardized
// workloads from internal/benchutil.
//
// Usage:
//
//	benchrec record [-label dev] [-o FILE] [-smoke] [-profile-dir DIR] [-series N] [-queries Q] [-days D] [-seed S] [-budget B] [-k K] [-workers W] [-shards S]
//	benchrec compare [-tol 0.15] OLD.json NEW.json    # exit 1 on regression
//	benchrec validate FILE.json                       # exit 1 on structural problems
//	benchrec gate [-min-speedup 4] [-max-gather-pct 25] FILE.json  # exit 1 on gate failure
//
// gate applies the acceptance criteria to a record: the batch, flat-path
// and sharded-scatter correctness bits must hold, no worker may own more
// than half the batch, the scatter layer's gather overhead must stay under
// -max-gather-pct of sharded query wall time, and — on machines whose
// gomaxprocs covers the workload's worker count — the parallel speedup must
// reach -min-speedup. On smaller machines the speedup floor is reported as
// skipped rather than enforced.
//
// With -profile-dir, mutex/block sampling is enabled for the run and one
// mutex/block/heap pprof capture is written right after the parallel
// throughput phase (the moment the record's contention section describes).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/benchutil"
	"repro/internal/obs"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) < 1 {
		usage(stderr)
		return 2
	}
	var err error
	switch args[0] {
	case "record":
		err = runRecord(args[1:], stdout)
	case "compare":
		var regressed bool
		regressed, err = runCompare(args[1:], stdout)
		if err == nil && regressed {
			return 1
		}
	case "validate":
		err = runValidate(args[1:], stdout)
	case "gate":
		var failed bool
		failed, err = runGate(args[1:], stdout)
		if err == nil && failed {
			return 1
		}
	case "-h", "-help", "--help", "help":
		usage(stdout)
		return 0
	default:
		fmt.Fprintf(stderr, "benchrec: unknown subcommand %q\n", args[0])
		usage(stderr)
		return 2
	}
	if err != nil {
		fmt.Fprintln(stderr, "benchrec:", err)
		return 1
	}
	return 0
}

func usage(w io.Writer) {
	fmt.Fprintln(w, `usage:
  benchrec record [-label dev] [-o FILE] [-smoke] [-profile-dir DIR] [workload flags]
  benchrec compare [-tol 0.15] OLD.json NEW.json
  benchrec validate FILE.json
  benchrec gate [-min-speedup 4] [-max-gather-pct 25] FILE.json`)
}

func runRecord(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("record", flag.ContinueOnError)
	def := benchutil.DefaultBenchWorkload()
	label := fs.String("label", "dev", "record label (names the output file)")
	out := fs.String("o", "", "output path (default BENCH_<label>.json)")
	smoke := fs.Bool("smoke", false, "use the tiny CI smoke workload instead of the default")
	series := fs.Int("series", def.Series, "database series")
	queries := fs.Int("queries", def.Queries, "held-out queries")
	days := fs.Int("days", def.Days, "days per series")
	seed := fs.Int64("seed", def.Seed, "corpus seed")
	budget := fs.Int("budget", def.Budget, "coefficient budget")
	k := fs.Int("k", def.K, "neighbours per search")
	workers := fs.Int("workers", def.Workers, "parallel fan-out for the throughput measurement")
	shards := fs.Int("shards", def.Shards, "partition width of the sharding phase's scatter-gather engine")
	profileDir := fs.String("profile-dir", "", "capture mutex/block/heap pprof profiles into DIR during the run")
	if err := fs.Parse(args); err != nil {
		return err
	}
	w := benchutil.BenchWorkload{
		Series: *series, Queries: *queries, Days: *days,
		Seed: *seed, Budget: *budget, K: *k, Workers: *workers, Shards: *shards,
	}
	if *smoke {
		w = benchutil.SmokeBenchWorkload()
	}
	var opts benchutil.BenchOptions
	if *profileDir != "" {
		opts.Profiler = obs.NewProfiler(obs.ProfilerOpts{Dir: *profileDir})
	}
	rec, err := benchutil.RunBenchWithOptions(w, *label, opts)
	if err != nil {
		return err
	}
	path := *out
	if path == "" {
		path = fmt.Sprintf("BENCH_%s.json", *label)
	}
	if err := benchutil.WriteRecord(rec, path); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "wrote %s (schema %d, workload %d series x %d days)\n",
		path, rec.Schema, w.Series, w.Days)
	fmt.Fprintf(stdout, "  build %.1f ms, tree height %d\n", rec.BuildMS, rec.TreeHeight)
	fmt.Fprintf(stdout, "  search p50 %.3f ms  p90 %.3f ms  prune ratio %.3f  fraction examined %.4f\n",
		rec.Search.Latency.P50MS, rec.Search.Latency.P90MS,
		rec.Search.PruneRatio, rec.Search.FractionExamined)
	fmt.Fprintf(stdout, "  qbb    p50 %.3f ms  rows scanned %.1f\n",
		rec.QBB.Latency.P50MS, rec.QBB.RowsScanned)
	fmt.Fprintf(stdout, "  throughput serial %.0f qps  parallel %.0f qps (%d workers)  speedup %.2fx  match=%v\n",
		rec.Throughput.SerialQPS, rec.Throughput.ParallelQPS,
		rec.Throughput.Workers, rec.Throughput.Speedup, rec.Throughput.BatchMatchesSerial)
	fmt.Fprintf(stdout, "  contention mean util %.2f  imbalance %.2f  steals %d  lock wait %.3f ms over %d batches\n",
		rec.Contention.MeanUtilization, rec.Contention.Imbalance,
		rec.Contention.StealsTotal, float64(rec.Contention.LockWaitNS)/1e6, rec.Contention.Batches)
	fmt.Fprintf(stdout, "  kernels block %d  searches %d  evals %d  blocks %d (pruned %d)\n",
		rec.Kernels.BlockSize, rec.Kernels.FlatSearches,
		rec.Kernels.KernelEvals, rec.Kernels.LeafBlocks, rec.Kernels.BlocksPruned)
	fmt.Fprintf(stdout, "  tracing untraced %.0f qps  traced %.0f qps  overhead %+.2f%%  traces kept %d\n",
		rec.Tracing.UntracedQPS, rec.Tracing.TracedQPS, rec.Tracing.OverheadPct, rec.Tracing.TracesKept)
	fmt.Fprintf(stdout, "  sharding %d shards (fanout %d)  %.0f qps  imbalance %.2f  gather %.2f%%  matches single=%v\n",
		rec.Sharding.Shards, rec.Sharding.Fanout, rec.Sharding.ShardedQPS,
		rec.Sharding.SeriesImbalance, rec.Sharding.GatherPct, rec.Sharding.ShardedMatchesSingle)
	for _, pt := range rec.Approx.Points {
		gated := ""
		if pt.Epsilon == rec.Approx.DefaultEpsilon {
			gated = " (gated)"
		}
		fmt.Fprintf(stdout, "  approx ε=%-4v recall@k %.3f%s  mean gap %.4f  nodes %.1f  speedup %.2fx  shortcut share %.2f\n",
			pt.Epsilon, pt.RecallAtK, gated, pt.MeanBoundGap, pt.NodesVisited, pt.Speedup, pt.ApproxShare)
	}
	fmt.Fprintf(stdout, "  approx exact-matches-zero=%v\n", rec.Approx.ExactMatchesZero)
	for _, p := range rec.Profiles {
		fmt.Fprintf(stdout, "  profile %s\n", p)
	}
	return nil
}

func runCompare(args []string, stdout io.Writer) (regressed bool, err error) {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	tol := fs.Float64("tol", 0.15, "relative regression tolerance (0.15 = 15%)")
	if err := fs.Parse(args); err != nil {
		return false, err
	}
	if fs.NArg() != 2 {
		return false, fmt.Errorf("compare needs exactly two record paths, got %d", fs.NArg())
	}
	oldRec, err := benchutil.LoadRecord(fs.Arg(0))
	if err != nil {
		return false, err
	}
	newRec, err := benchutil.LoadRecord(fs.Arg(1))
	if err != nil {
		return false, err
	}
	regs, err := benchutil.CompareBenchRecords(oldRec, newRec, *tol)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(stdout, "comparing %s (%s) -> %s (%s), tolerance %.0f%%\n",
		oldRec.Label, oldRec.CreatedAt, newRec.Label, newRec.CreatedAt, *tol*100)
	if len(regs) == 0 {
		fmt.Fprintln(stdout, "no regressions")
		return false, nil
	}
	for _, r := range regs {
		fmt.Fprintf(stdout, "REGRESSION %-26s %10.4f -> %10.4f  (%+.1f%%)\n",
			r.Metric, r.Old, r.New, r.Delta*100)
	}
	return true, nil
}

func runGate(args []string, stdout io.Writer) (failed bool, err error) {
	fs := flag.NewFlagSet("gate", flag.ContinueOnError)
	minSpeedup := fs.Float64("min-speedup", 4.0, "parallel speedup floor (enforced only when gomaxprocs >= workload workers)")
	maxGatherPct := fs.Float64("max-gather-pct", 25.0, "gather-overhead ceiling as % of sharded query wall time (<= 0 disables)")
	if err := fs.Parse(args); err != nil {
		return false, err
	}
	if fs.NArg() != 1 {
		return false, fmt.Errorf("gate needs exactly one record path, got %d", fs.NArg())
	}
	rec, err := benchutil.LoadRecord(fs.Arg(0))
	if err != nil {
		return false, err
	}
	fmt.Fprintf(stdout, "gating %s: workers %d, gomaxprocs %d, speedup %.2fx, max task share %.3f, gather %.2f%% over %d shards\n",
		fs.Arg(0), rec.Workload.Workers, rec.GoMaxProcs,
		rec.Throughput.Speedup, rec.Contention.MaxTaskShare,
		rec.Sharding.GatherPct, rec.Sharding.Shards)
	if rec.GoMaxProcs < rec.Workload.Workers {
		fmt.Fprintf(stdout, "  speedup floor %.1fx skipped: gomaxprocs %d < %d workers (machine cannot show wall-clock parallelism)\n",
			*minSpeedup, rec.GoMaxProcs, rec.Workload.Workers)
	}
	fails := benchutil.GateRecord(rec, *minSpeedup, *maxGatherPct)
	if len(fails) == 0 {
		fmt.Fprintln(stdout, "gate passed")
		return false, nil
	}
	for _, f := range fails {
		fmt.Fprintf(stdout, "GATE FAILURE: %s\n", f)
	}
	return true, nil
}

func runValidate(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("validate", flag.ContinueOnError)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("validate needs exactly one record path, got %d", fs.NArg())
	}
	rec, err := benchutil.LoadRecord(fs.Arg(0))
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s: valid (schema %d, label %q, %d counters)\n",
		fs.Arg(0), rec.Schema, rec.Label, len(rec.Counters))
	return nil
}
