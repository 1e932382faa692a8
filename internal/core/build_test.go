package core

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/querylog"
	"repro/internal/series"
	"repro/internal/spectral"
)

// savedBytes saves e and returns the directory's files by name.
func savedBytes(t *testing.T, e *Engine) map[string]string {
	t.Helper()
	dir := t.TempDir()
	if err := e.Save(dir); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := make(map[string]string, len(entries))
	for _, ent := range entries {
		b, err := os.ReadFile(filepath.Join(dir, ent.Name()))
		if err != nil {
			t.Fatal(err)
		}
		files[ent.Name()] = string(b)
	}
	return files
}

// buildAnswers runs one request of each family the derive stage feeds.
func buildAnswers(t *testing.T, e *Engine, queries []*series.Series) []*Response {
	t.Helper()
	var out []*Response
	for _, q := range queries {
		for _, req := range []Request{
			{Kind: KindSimilar, Values: q.Values, K: 5},
			{Kind: KindBurst, Values: q.Values, K: 5, Window: Short},
			{Kind: KindBurst, Values: q.Values, K: 5, Window: Long},
		} {
			resp, err := e.Query(context.Background(), req)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, resp)
		}
	}
	return out
}

// The engine NewEngine builds is a function of its input alone: not of how
// many workers derived a block, nor of where the block edges fell.
func TestNewEngineInvariantToWorkersAndBlockEdges(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	g := querylog.NewGenerator(querylog.DefaultStart, 64, 41)
	corpus := g.Dataset(2*deriveBlock + 3)
	queries := g.Queries(3)
	for _, n := range []int{deriveBlock - 1, deriveBlock, deriveBlock + 1, 2*deriveBlock + 3} {
		var wantFiles map[string]string
		var wantAnswers []*Response
		for _, procs := range []int{1, 2, 8} {
			runtime.GOMAXPROCS(procs)
			e, err := NewEngine(corpus[:n], Config{Budget: 8})
			if err != nil {
				t.Fatal(err)
			}
			files, answers := savedBytes(t, e), buildAnswers(t, e, queries)
			e.Close()
			if procs == 1 {
				wantFiles, wantAnswers = files, answers
				continue
			}
			for name, want := range wantFiles {
				if files[name] != want {
					t.Errorf("n=%d GOMAXPROCS=%d: saved %s differs from the one-worker build's", n, procs, name)
				}
			}
			if len(files) != len(wantFiles) {
				t.Errorf("n=%d GOMAXPROCS=%d: saved %d files, want %d", n, procs, len(files), len(wantFiles))
			}
			if !reflect.DeepEqual(answers, wantAnswers) {
				t.Errorf("n=%d GOMAXPROCS=%d: answers or Stats differ from the one-worker build's", n, procs)
			}
		}
	}
}

// badAt returns corpus with a wrong-length series, named after its position,
// at each of the given positions.
func badAt(corpus []*series.Series, positions ...int) []*series.Series {
	out := append([]*series.Series(nil), corpus...)
	for _, p := range positions {
		out[p] = &series.Series{Name: fmt.Sprintf("bad-%d", p), Values: make([]float64, 7)}
	}
	return out
}

// openFDs counts this process's open descriptors.
func openFDs(t *testing.T) int {
	t.Helper()
	entries, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("no /proc/self/fd here: %v", err)
	}
	return len(entries)
}

// A build that fails reports the first bad series by input position whatever
// the worker count, and leaves nothing behind: no goroutine, no open file, no
// series counted as ingested.
func TestNewEngineFailureLeavesNothingBehind(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	g := querylog.NewGenerator(querylog.DefaultStart, 64, 43)
	corpus := g.Dataset(2*deriveBlock + 3)
	// Bad series in the middle of the second block and, later, in the third;
	// and two in one block, the later of which a second worker meets first.
	for _, positions := range [][]int{{deriveBlock + 100, 2*deriveBlock + 1}, {40, 41}, {deriveBlock - 1, deriveBlock}} {
		data := badAt(corpus, positions...)
		for _, procs := range []int{1, 2, 8} {
			runtime.GOMAXPROCS(procs)
			hub := obs.NewHub()
			goroutines, fds := runtime.NumGoroutine(), openFDs(t)
			_, err := NewEngine(data, Config{Obs: hub})
			if err == nil {
				t.Fatal("NewEngine accepted a wrong-length series")
			}
			if first := data[positions[0]].Name; !strings.Contains(err.Error(), first) || !errors.Is(err, spectral.ErrMismatch) {
				t.Errorf("bad at %v, GOMAXPROCS=%d: error %q, want series %q's length mismatch", positions, procs, err, first)
			}
			if got := openFDs(t); got > fds {
				t.Errorf("bad at %v, GOMAXPROCS=%d: %d descriptors open before the failed build, %d after", positions, procs, fds, got)
			}
			if got := counterValue(t, hub.Registry(), "engine_series_ingested_total"); got != 0 {
				t.Errorf("failed build counted %d series as ingested", got)
			}
			for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > goroutines; time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatalf("goroutines: %d before the failed build, %d after", goroutines, runtime.NumGoroutine())
				}
			}
		}
	}
}

// prepareAdd and the build's block workers derive through one function: an
// engine grown by Add holds what one built over the same series holds.
func TestAddDerivesWhatBuildDerives(t *testing.T) {
	g := querylog.NewGenerator(querylog.DefaultStart, 64, 53)
	data := g.Dataset(40)
	built, err := NewEngine(data, Config{Budget: 8, DynamicIndex: true})
	if err != nil {
		t.Fatal(err)
	}
	defer built.Close()
	grown, err := NewEngine(data[:30], Config{Budget: 8, DynamicIndex: true})
	if err != nil {
		t.Fatal(err)
	}
	defer grown.Close()
	for _, s := range data[30:] {
		if _, err := grown.Add(s); err != nil {
			t.Fatal(err)
		}
	}
	want, got := savedBytes(t, built), savedBytes(t, grown)
	for _, name := range []string{"z.bin", "raw.bin", "names.txt", "burst_short.bin", "burst_long.bin"} {
		if got[name] != want[name] {
			t.Errorf("%s of the grown engine differs from the built one's", name)
		}
	}
}

// BenchmarkNewEngine4096 is a whole build at the size of the benchmark's
// sharded_knn and ingest_mix corpora.
func BenchmarkNewEngine4096(b *testing.B) {
	g := querylog.NewGenerator(querylog.DefaultStart, 1024, 1)
	data := g.Dataset(4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e, err := NewEngine(data, Config{})
		if err != nil {
			b.Fatal(err)
		}
		e.Close()
	}
}
