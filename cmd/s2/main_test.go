package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/leakcheck"
	"repro/internal/obs"
	"repro/internal/querylog"
	"repro/internal/seqstore"
	"repro/internal/shard"
	"repro/internal/sketch"
)

func testEngine(t *testing.T) *core.Engine {
	t.Helper()
	g := querylog.NewGenerator(querylog.DefaultStart, 256, 1)
	data := append(g.Exemplars(), g.Dataset(20)...)
	e, err := core.NewEngine(data, core.Config{Budget: 8})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	return e
}

func TestDispatchCommands(t *testing.T) {
	e := testEngine(t)
	good := []string{
		"help",
		"list",
		"list cin",
		"similar cinema 3",
		"similar full moon 2",
		"periods cinema",
		"periods full moon",
		"bursts easter",
		"bursts full moon short",
		"qbb halloween 3",
		"show elvis",
		"sql SELECT * FROM bursts LIMIT 3",
		"sql SELECT seqid, avgvalue FROM bursts WHERE startdate < 100 ORDER BY avgvalue DESC LIMIT 2",
	}
	for _, line := range good {
		if err := dispatch(e, line); err != nil {
			t.Errorf("dispatch(%q): %v", line, err)
		}
	}
}

func TestDispatchErrors(t *testing.T) {
	e := testEngine(t)
	bad := []string{
		"similar nosuchquery",
		"frobnicate cinema",
		"periods querythatdoesnotexist",
		"sql",
		"sql DELETE FROM bursts",
		"sql SELECT * FROM bursts WHERE bogus < 1",
	}
	for _, line := range bad {
		if err := dispatch(e, line); err == nil {
			t.Errorf("dispatch(%q) should fail", line)
		}
	}
}

func TestSimPeriodCommand(t *testing.T) {
	e := testEngine(t)
	if err := dispatch(e, "simperiod cinema 7"); err != nil {
		t.Errorf("simperiod: %v", err)
	}
	for _, bad := range []string{"simperiod", "simperiod cinema", "simperiod cinema abc",
		"simperiod nosuch 7", "simperiod cinema -2"} {
		if err := dispatch(e, bad); err == nil {
			t.Errorf("dispatch(%q) should fail", bad)
		}
	}
	if err := dispatch(e, "approx cinema"); err != nil {
		t.Errorf("approx: %v", err)
	}
}

func TestCommonCommand(t *testing.T) {
	e := testEngine(t)
	if err := dispatch(e, "common cinema 3"); err != nil {
		t.Errorf("common: %v", err)
	}
	if err := dispatch(e, "common nosuchquery"); err == nil {
		t.Error("expected error for unknown query")
	}
}

func TestExplainCommand(t *testing.T) {
	e := testEngine(t)
	for _, line := range []string{
		"explain similar cinema 3",
		"explain qbb halloween 3",
		"explain similar full moon",
	} {
		if err := dispatch(e, line); err != nil {
			t.Errorf("dispatch(%q): %v", line, err)
		}
	}

	var buf strings.Builder
	if err := runExplain(e, []string{"similar", "cinema", "3"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"EXPLAIN similar_to_id", "prune attribution", "[ok]"} {
		if !strings.Contains(out, want) {
			t.Errorf("explain output missing %q:\n%s", want, out)
		}
	}

	// Explain rides on Query, so it works partitioned too: one report per
	// shard under the merged header.
	g := querylog.NewGenerator(querylog.DefaultStart, 256, 1)
	se, err := shard.NewFromConfig(append(g.Exemplars(), g.Dataset(20)...), core.Config{Budget: 8, Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer se.Close()
	buf.Reset()
	if err := runExplain(se, []string{"similar", "cinema", "3"}, &buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"EXPLAIN sharded_similar_id", "shard 2: EXPLAIN", "[ok]"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("sharded explain output missing %q:\n%s", want, buf.String())
		}
	}
	if err := dispatch(se, "explain qbb halloween 3"); err != nil {
		t.Errorf("sharded explain qbb: %v", err)
	}

	for _, bad := range []string{
		"explain",
		"explain similar",
		"explain bursts cinema",
		"explain similar nonexistent-query",
	} {
		if err := dispatch(e, bad); err == nil {
			t.Errorf("dispatch(%q) should fail", bad)
		}
	}
}

// TestWriteStatsDeterministic checks the stats listing is one globally
// name-sorted block, identical across repeated snapshots.
func TestWriteStatsDeterministic(t *testing.T) {
	hub := obs.NewHub()
	hub.Metrics.Counter("zz_total", "").Inc()
	hub.Metrics.Gauge("aa_gauge", "").Set(1)
	hub.Metrics.Timer("mm_latency_seconds", "").Observe(time.Millisecond)
	hub.Metrics.Counter("bb_total", "").Inc()

	var first, second strings.Builder
	writeStats(&first, hub)
	writeStats(&second, hub)
	if first.String() != second.String() {
		t.Errorf("stats output not stable:\n%s\nvs\n%s", first.String(), second.String())
	}
	var order []int
	for _, name := range []string{"aa_gauge", "bb_total", "mm_latency_seconds", "zz_total"} {
		idx := strings.Index(first.String(), name)
		if idx < 0 {
			t.Fatalf("stats output missing %s:\n%s", name, first.String())
		}
		order = append(order, idx)
	}
	if !sort.IntsAreSorted(order) {
		t.Errorf("stats not globally name-sorted (offsets %v):\n%s", order, first.String())
	}

	var empty strings.Builder
	writeStats(&empty, obs.NewHub())
	if !strings.Contains(empty.String(), "no metrics recorded yet") {
		t.Errorf("empty stats output: %s", empty.String())
	}
	for _, out := range []string{first.String(), empty.String()} {
		if !strings.HasPrefix(out, "  sketch kernel: "+sketch.Kernel()+"\n") {
			t.Errorf("stats output does not open with the sketch kernel in use:\n%s", out)
		}
	}
}

// stats ends with one scan line per engine: what its similarity searches
// scanned, zero before the first.
func TestWriteIndexStats(t *testing.T) {
	var single strings.Builder
	e := testEngine(t)
	writeIndexStats(&single, e)
	if out := single.String(); out != fmt.Sprintf("  scan 0: %d rows, 0 searches, 0 blocks, 0 bounds (0.0%% abandoned)\n", e.Len()) {
		t.Errorf("single engine: %q", out)
	}
	// After searches the line carries what they evaluated, and the share is
	// of those: an abandoned bound is one of the kernel evals.
	for _, q := range []string{"cinema", "easter", "full moon"} {
		if err := dispatch(e, "similar "+q+" 3"); err != nil {
			t.Fatal(err)
		}
	}
	ts := e.ScanTotals()
	single.Reset()
	writeIndexStats(&single, e)
	want := fmt.Sprintf(" 3 searches, %d blocks, %d bounds (%.1f%% abandoned)", ts.Blocks, ts.Bounds, 100*float64(ts.Abandoned)/float64(ts.Bounds))
	if out := single.String(); ts.Bounds != 3*int64(e.Len()) || ts.Abandoned > ts.Bounds || !strings.Contains(out, want) {
		t.Errorf("after three searches (%+v): %q, want it to contain %q", ts, out, want)
	}

	g := querylog.NewGenerator(querylog.DefaultStart, 256, 1)
	se, err := shard.NewFromConfig(append(g.Exemplars(), g.Dataset(20)...), core.Config{Budget: 8, Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer se.Close()
	var sharded strings.Builder
	writeIndexStats(&sharded, se)
	if out := sharded.String(); strings.Count(out, "\n") != 3 || !strings.Contains(out, "  scan 2: ") {
		t.Errorf("three shards: %q", out)
	}
}

// -load refuses a file with a poisoned row — a CSV or a genlog binary, single
// engine or sharded — with an error that names the row, and leaves no file
// open: the binary's rows are read from the file by the build, which closes
// it on its error path.
func TestLoadRefusesNonFiniteRow(t *testing.T) {
	g := querylog.NewGenerator(querylog.DefaultStart, 32, 3)
	data := g.Dataset(12)
	dir := t.TempDir()
	var csv, names strings.Builder
	bin, err := seqstore.Create(filepath.Join(dir, "poisoned.bin"), 32)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range data {
		values := append([]float64(nil), s.Values...)
		if i == 7 {
			values[20] = math.NaN()
		}
		if _, err := bin.Append(values); err != nil {
			t.Fatal(err)
		}
		names.WriteString(s.Name + "\n")
		csv.WriteString(s.Name)
		for _, v := range values {
			fmt.Fprintf(&csv, ",%g", v)
		}
		csv.WriteByte('\n')
	}
	if err := bin.Close(); err != nil {
		t.Fatal(err)
	}
	for name, text := range map[string]string{"poisoned.csv": csv.String(), "poisoned.bin.names": names.String()} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for _, file := range []string{"poisoned.csv", "poisoned.bin"} {
		for _, shards := range []int{1, 3} {
			what := fmt.Sprintf("-load %s with %d shard(s)", file, shards)
			leakcheck.Files(t, what, func() {
				e, _, err := buildEngine("", filepath.Join(dir, file), 0, 0, 0, 8, shards, nil)
				if !errors.Is(err, core.ErrNonFinite) || !strings.Contains(err.Error(), data[7].Name) {
					t.Errorf("%s: engine %v, error %v, want ErrNonFinite naming %q", what, e, err, data[7].Name)
				}
			})
		}
	}
}

// s2 -db D -save D saves into the directory the engine reads its rows from:
// D still opens, and answers as the engine that first saved it.
func TestSaveIntoTheOpenedDirectory(t *testing.T) {
	dir := t.TempDir()
	built, _, err := buildEngine("", "", 40, 128, 1, 8, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer built.Close()
	if err := saveEngine(built, dir); err != nil {
		t.Fatal(err)
	}
	leakcheck.Files(t, "-db D -save D", func() {
		e, _, err := buildEngine(dir, "", 0, 0, 0, 8, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		if err := saveEngine(e, dir); err != nil {
			t.Errorf("-db D -save D: %v", err)
		}
	})
	leakcheck.Files(t, "-db D after the save", func() {
		e, _, err := buildEngine(dir, "", 0, 0, 0, 8, 1, nil)
		if err != nil {
			t.Fatalf("-db D after -db D -save D: %v", err)
		}
		defer e.Close()
		for id := range built.Len() {
			req := core.Request{Kind: core.KindSimilarID, ID: id, K: 5}
			want, err := built.Query(context.Background(), req)
			if err != nil {
				t.Fatal(err)
			}
			got, err := e.Query(context.Background(), req)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got.Neighbors, want.Neighbors) {
				t.Fatalf("similar %d: %v after the save, %v before", id, got.Neighbors, want.Neighbors)
			}
		}
	})
}

// Out-of-range flags are refused before anything is built, not turned into
// a panic or a silent default.
func TestBuildEngineRefusesOutOfRangeFlags(t *testing.T) {
	for _, c := range []struct {
		flag                    string
		n, days, budget, shards int
	}{
		{"-days", 3, 0, 16, 1},
		{"-days", 3, -5, 16, 1},
		{"-n", -3, 32, 16, 1},
		{"-budget", 3, 32, 0, 1},
		{"-budget", 3, 32, -1, 1},
		{"-shards", 3, 32, 16, 0},
		{"-shards", 3, 32, 16, -3},
	} {
		e, _, err := buildEngine("", "", c.n, c.days, 1, c.budget, c.shards, nil)
		if err == nil || !strings.HasPrefix(err.Error(), c.flag+" ") {
			t.Errorf("%+v: engine %v, error %v; want an error naming %s", c, e, err, c.flag)
		}
	}
}

// TestServingFlagsRefuseOutOfRange: a serving or telemetry flag out of its
// range is refused, naming the flag, where the sampler or the admission
// controller would have quietly turned it into a default.
func TestServingFlagsRefuseOutOfRange(t *testing.T) {
	type flags struct {
		sample          float64
		inflight, queue int
		wait, slowQuery time.Duration
	}
	ok := flags{1, 64, 0, time.Second, 0}
	for _, c := range []struct {
		flag string
		mod  func(*flags)
	}{
		{"-trace-sample", func(f *flags) { f.sample = 5 }},
		{"-trace-sample", func(f *flags) { f.sample = -1 }},
		{"-trace-sample", func(f *flags) { f.sample = math.NaN() }},
		{"-max-inflight", func(f *flags) { f.inflight = 0 }},
		{"-max-inflight", func(f *flags) { f.inflight = -3 }},
		{"-max-queue", func(f *flags) { f.queue = -1 }},
		{"-queue-wait", func(f *flags) { f.wait = 0 }},
		{"-queue-wait", func(f *flags) { f.wait = -time.Second }},
		{"-slow-query", func(f *flags) { f.slowQuery = -5 * time.Millisecond }},
	} {
		f := ok
		c.mod(&f)
		err := checkServingFlags(f.sample, f.inflight, f.queue, f.wait, f.slowQuery)
		if err == nil || !strings.HasPrefix(err.Error(), c.flag+" ") {
			t.Errorf("%+v: error %v; want an error naming %s", f, err, c.flag)
		}
	}
	// The edges stay accepted: the defaults, a sampler keeping nothing, a
	// slow log that is off.
	for _, f := range []flags{ok, {0, 1, 0, time.Nanosecond, 0}, {0.5, 1, 3, time.Minute, time.Millisecond}} {
		if err := checkServingFlags(f.sample, f.inflight, f.queue, f.wait, f.slowQuery); err != nil {
			t.Errorf("%+v refused: %v", f, err)
		}
	}
}
