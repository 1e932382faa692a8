package benchutil

import (
	"path/filepath"
	"strings"
	"testing"
)

func smokeRecord(t *testing.T) *BenchRecord {
	t.Helper()
	rec, err := RunBench(SmokeBenchWorkload(), "test")
	if err != nil {
		t.Fatal(err)
	}
	return rec
}

func TestRunBenchValidates(t *testing.T) {
	rec := smokeRecord(t)
	if err := rec.Validate(); err != nil {
		t.Fatalf("fresh record invalid: %v", err)
	}
	if rec.Schema != BenchSchemaVersion {
		t.Errorf("schema = %d", rec.Schema)
	}
	w := SmokeBenchWorkload()
	if rec.Search.Latency.Samples != w.Queries {
		t.Errorf("search samples = %d, want %d", rec.Search.Latency.Samples, w.Queries)
	}
	if rec.Search.PruneRatio <= 0 {
		t.Errorf("prune ratio = %v, want > 0 (pruning should do something)", rec.Search.PruneRatio)
	}
	// The latency loop runs each query once; the serial throughput loop
	// replays the set for `rounds` more passes; the degradation phase adds a
	// budget-truncated pass and an admission-saturated pass (its cancelled
	// queries abort before reaching the counter).
	rounds := (throughputMinQueries + w.Queries - 1) / w.Queries
	if want := int64(w.Queries * (3 + rounds)); rec.Counters["engine_similar_total"] != want {
		t.Errorf("engine_similar_total = %d, want %d", rec.Counters["engine_similar_total"], want)
	}
	if rec.Degradation.Aborted != int64(w.Queries) || rec.Degradation.Truncated != int64(w.Queries) {
		t.Errorf("degradation = %+v, want %d aborted and truncated", rec.Degradation, w.Queries)
	}
	if got := rec.Counters["engine_query_aborted_total"]; got != int64(w.Queries) {
		t.Errorf("engine_query_aborted_total = %d, want %d", got, w.Queries)
	}
	if got := rec.Counters["engine_query_truncated_total"]; got != int64(w.Queries) {
		t.Errorf("engine_query_truncated_total = %d, want %d", got, w.Queries)
	}
	if rec.Throughput.Workers != w.Workers {
		t.Errorf("throughput workers = %d, want %d", rec.Throughput.Workers, w.Workers)
	}
	if rec.Throughput.Queries != w.Queries*rounds {
		t.Errorf("throughput queries = %d, want %d", rec.Throughput.Queries, w.Queries*rounds)
	}
	if !rec.Throughput.BatchMatchesSerial {
		t.Error("batch search diverged from serial")
	}
	if rec.Kernels.FlatSearches < int64(w.Queries) || rec.Kernels.KernelEvals < 1 {
		t.Errorf("kernels = %+v, want at least the workload's searches counted", rec.Kernels)
	}
	if rec.GoMaxProcs < 1 {
		t.Errorf("gomaxprocs = %d", rec.GoMaxProcs)
	}
	if s := rec.Contention.MaxTaskShare; s <= 0 || s > 1 {
		t.Errorf("max_task_share = %v outside (0,1]", s)
	}
	if rec.Sharding.Shards != w.Shards || !rec.Sharding.ShardedMatchesSingle {
		t.Errorf("sharding = %+v, want %d shards matching the single engine", rec.Sharding, w.Shards)
	}
	if rec.Sharding.Scatters != int64(rec.Throughput.Queries) {
		t.Errorf("sharding scattered %d queries, want %d", rec.Sharding.Scatters, rec.Throughput.Queries)
	}
	if _, err := RunBench(BenchWorkload{}, "zero"); err == nil {
		t.Error("zero workload should be rejected")
	}
}

func TestGateRecord(t *testing.T) {
	rec := smokeRecord(t)
	// A fresh record passes everything but possibly the speedup check, which
	// only arms on machines with one core per worker.
	rec.GoMaxProcs = 1 // disarm speedup regardless of the host
	if fails := GateRecord(rec, 4.0, 90); len(fails) != 0 {
		t.Errorf("fresh record fails gate: %v", fails)
	}

	bad := *rec
	bad.Throughput.BatchMatchesSerial = false
	bad.Contention.MaxTaskShare = 0.9
	bad.Sharding.ShardedMatchesSingle = false
	bad.Sharding.GatherPct = 95
	if fails := GateRecord(&bad, 4.0, 90); len(fails) != 4 {
		t.Errorf("corrupt record produced %d failures, want 4: %v", len(fails), fails)
	}
	// A non-positive ceiling disables the gather check only.
	if fails := GateRecord(&bad, 4.0, 0); len(fails) != 3 {
		t.Errorf("corrupt record with gather gate disabled produced %d failures, want 3: %v", len(fails), fails)
	}

	// With gomaxprocs >= workers the speedup floor arms.
	slow := *rec
	slow.GoMaxProcs = slow.Workload.Workers
	slow.Throughput.Speedup = 1.0
	fails := GateRecord(&slow, 4.0, 90)
	if len(fails) != 1 || !strings.Contains(fails[0], "speedup") {
		t.Errorf("slow record failures = %v, want one speedup failure", fails)
	}
	slow.Throughput.Speedup = 5.0
	if fails := GateRecord(&slow, 4.0, 90); len(fails) != 0 {
		t.Errorf("fast record fails gate: %v", fails)
	}

	// The quality gate: ε=0 divergence and a recall miss at the default ε
	// each fail independently.
	lossy := *rec
	lossy.Approx.Points = append([]ApproxPoint(nil), rec.Approx.Points...)
	lossy.Approx.ExactMatchesZero = false
	if pt := lossy.Approx.PointAt(lossy.Approx.DefaultEpsilon); pt == nil {
		t.Fatal("record has no point at the default ε")
	} else {
		pt.RecallAtK = 0.9
	}
	fails = GateRecord(&lossy, 4.0, 90)
	if len(fails) != 2 || !strings.Contains(fails[0], "exact_matches_zero") || !strings.Contains(fails[1], "recall_at_k") {
		t.Errorf("lossy record failures = %v, want exact_matches_zero + recall_at_k", fails)
	}
}

func TestRecordRoundTrip(t *testing.T) {
	rec := smokeRecord(t)
	path := filepath.Join(t.TempDir(), "BENCH_test.json")
	if err := WriteRecord(rec, path); err != nil {
		t.Fatal(err)
	}
	back, err := LoadRecord(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Workload != rec.Workload || back.Label != rec.Label {
		t.Errorf("round trip changed record: %+v vs %+v", back, rec)
	}
	if back.Search != rec.Search || back.QBB != rec.QBB || back.Throughput != rec.Throughput ||
		back.Degradation != rec.Degradation {
		t.Errorf("round trip changed summaries")
	}
}

func TestValidateRejectsCorruptRecords(t *testing.T) {
	base := smokeRecord(t)
	mutate := func(f func(*BenchRecord)) *BenchRecord {
		c := *base
		c.Counters = map[string]int64{"x": 1}
		f(&c)
		return &c
	}
	cases := map[string]*BenchRecord{
		"schema":     mutate(func(r *BenchRecord) { r.Schema = 99 }),
		"label":      mutate(func(r *BenchRecord) { r.Label = "" }),
		"created_at": mutate(func(r *BenchRecord) { r.CreatedAt = "yesterday" }),
		"workload":   mutate(func(r *BenchRecord) { r.Workload.Series = 0 }),
		"build":      mutate(func(r *BenchRecord) { r.BuildMS = 0 }),
		"percentile": mutate(func(r *BenchRecord) { r.Search.Latency.P50MS = r.Search.Latency.MaxMS * 2 }),
		"ratio":      mutate(func(r *BenchRecord) { r.Search.PruneRatio = 1.5 }),
		"qps":        mutate(func(r *BenchRecord) { r.Throughput.ParallelQPS = 0 }),
		"speedup":    mutate(func(r *BenchRecord) { r.Throughput.Speedup *= 2 }),
		"mismatch":   mutate(func(r *BenchRecord) { r.Throughput.BatchMatchesSerial = false }),
		"aborted":    mutate(func(r *BenchRecord) { r.Degradation.Aborted = 0 }),
		"truncated":  mutate(func(r *BenchRecord) { r.Degradation.Truncated-- }),
		"queue_wait": mutate(func(r *BenchRecord) { r.Degradation.QueueWaitMS = 0 }),
		"tracing":    mutate(func(r *BenchRecord) { r.Tracing.UntracedQPS = 0 }),
		"traces":     mutate(func(r *BenchRecord) { r.Tracing.TracesKept = 0 }),
		"counters":   mutate(func(r *BenchRecord) { r.Counters = nil }),
		"gomaxprocs": mutate(func(r *BenchRecord) { r.GoMaxProcs = 0 }),
		"task_share": mutate(func(r *BenchRecord) { r.Contention.MaxTaskShare = 1.5 }),
		"share_drift": mutate(func(r *BenchRecord) {
			r.Contention.MaxTaskShare = r.Contention.MaxTaskShare/2 + 0.01
		}),
		"kernels_unused": mutate(func(r *BenchRecord) { r.Kernels.FlatSearches = 0 }),
		"kernels_neg":    mutate(func(r *BenchRecord) { r.Kernels.BlocksPruned = -1 }),
		"shard_count":    mutate(func(r *BenchRecord) { r.Sharding.Shards++ }),
		"shard_fanout":   mutate(func(r *BenchRecord) { r.Sharding.Fanout = 0 }),
		"shard_scatters": mutate(func(r *BenchRecord) { r.Sharding.Scatters = 0 }),
		"shard_gather":   mutate(func(r *BenchRecord) { r.Sharding.GatherPct = 200 }),
		"shard_mismatch": mutate(func(r *BenchRecord) { r.Sharding.ShardedMatchesSingle = false }),
	}
	for name, rec := range cases {
		if err := rec.Validate(); err == nil {
			t.Errorf("corrupt record %q passed validation", name)
		}
	}
}

func TestCompareBenchRecords(t *testing.T) {
	old := smokeRecord(t)
	// Identical records never regress.
	same := *old
	regs, err := CompareBenchRecords(old, &same, 0.10)
	if err != nil {
		t.Fatal(err)
	}
	if len(regs) != 0 {
		t.Errorf("self-comparison flagged regressions: %v", regs)
	}

	// Injected regressions in each direction are caught.
	bad := *old
	bad.Search.Latency.P50MS = old.Search.Latency.P50MS * 2 // latency up = worse
	bad.Search.PruneRatio = old.Search.PruneRatio * 0.5     // pruning down = worse
	regs, err = CompareBenchRecords(old, &bad, 0.10)
	if err != nil {
		t.Fatal(err)
	}
	var metrics []string
	for _, r := range regs {
		metrics = append(metrics, r.Metric)
		if r.Delta <= 0.10 {
			t.Errorf("regression %s has delta %v <= tol", r.Metric, r.Delta)
		}
	}
	joined := strings.Join(metrics, ",")
	for _, want := range []string{"search.latency.p50_ms", "search.prune_ratio"} {
		if !strings.Contains(joined, want) {
			t.Errorf("regressions %v missing %s", metrics, want)
		}
	}

	// An improvement in the good direction is not a regression.
	good := *old
	good.Search.Latency.P50MS = old.Search.Latency.P50MS * 0.5
	good.Search.PruneRatio = min(1, old.Search.PruneRatio*1.05)
	regs, err = CompareBenchRecords(old, &good, 0.10)
	if err != nil {
		t.Fatal(err)
	}
	if len(regs) != 0 {
		t.Errorf("improvement flagged as regression: %v", regs)
	}

	// Records of different workloads refuse to compare.
	other := *old
	other.Workload.Series++
	if _, err := CompareBenchRecords(old, &other, 0.10); err == nil {
		t.Error("different workloads compared without error")
	}
}

func TestSummarizePercentiles(t *testing.T) {
	s := summarize([]float64{5, 1, 4, 2, 3, 6, 7, 8, 9, 10})
	if s.Samples != 10 || s.P50MS != 5 || s.P90MS != 9 || s.P99MS != 10 || s.MaxMS != 10 {
		t.Errorf("summary = %+v", s)
	}
	if s.MeanMS != 5.5 {
		t.Errorf("mean = %v", s.MeanMS)
	}
	if z := summarize(nil); z.Samples != 0 {
		t.Errorf("empty summary = %+v", z)
	}
}
