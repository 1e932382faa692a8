package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/burstdb"
	"repro/internal/leakcheck"
	"repro/internal/querylog"
	"repro/internal/series"
	"repro/internal/vptree"
)

func TestEngineSaveLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	g := querylog.NewGenerator(querylog.DefaultStart, 256, 30)
	data := append(g.Exemplars(), g.Dataset(40)...)
	orig, err := NewEngine(data, Config{Budget: 10})
	if err != nil {
		t.Fatal(err)
	}
	defer orig.Close()
	if err := orig.Save(dir); err != nil {
		t.Fatal(err)
	}

	loaded, err := LoadEngine(dir, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer loaded.Close()

	if loaded.Len() != orig.Len() || loaded.SeqLen() != orig.SeqLen() {
		t.Fatalf("Len/SeqLen %d/%d vs %d/%d",
			loaded.Len(), loaded.SeqLen(), orig.Len(), orig.SeqLen())
	}
	// Name table and raw series survive.
	id, ok := loaded.Lookup(querylog.Cinema)
	if !ok {
		t.Fatal("cinema lost")
	}
	so, _ := orig.Series(id)
	sl, err := loaded.Series(id)
	if err != nil {
		t.Fatal(err)
	}
	if !sl.Start.Equal(so.Start) {
		t.Errorf("start date %v vs %v", sl.Start, so.Start)
	}
	for i := range so.Values {
		if so.Values[i] != sl.Values[i] {
			t.Fatalf("raw value %d differs", i)
		}
	}
	// Every family answers bit for bit what it answered before the save:
	// the same IDs, the same distance or score bits, the same Stats.
	hid, _ := loaded.Lookup(querylog.Halloween)
	eid, _ := loaded.Lookup(querylog.Easter)
	easter, _ := orig.Series(eid)
	for _, req := range roundTripRequests(g.Queries(1)[0].Values, easter.Values, id, hid) {
		want, err := orig.Query(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		got, err := loaded.Query(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		if len(want.Neighbors)+len(want.Matches) == 0 {
			t.Fatalf("%v: no answer to compare", req.Kind)
		}
		sameAnswer(t, req.Kind.String(), got, want)
	}
	// The loaded index holds the representation it was saved with: every
	// series reconstructs from the same coefficients, to the same bits.
	for id := 0; id < orig.Len(); id++ {
		want, err := orig.Reconstruct(id)
		if err != nil {
			t.Fatal(err)
		}
		got, err := loaded.Reconstruct(id)
		if err != nil {
			t.Fatal(err)
		}
		if got.Coefficients != want.Coefficients || math.Float64bits(got.Error) != math.Float64bits(want.Error) ||
			!slices.Equal(got.Values, want.Values) {
			t.Fatalf("series %d reconstructs from %d coefficients (E = %v) after the load, %d (E = %v) before",
				id, got.Coefficients, got.Error, want.Coefficients, want.Error)
		}
	}
	// Periods work on the loaded engine too.
	det, err := loaded.PeriodsOf(id)
	if err != nil {
		t.Fatal(err)
	}
	if !det.HasPeriodNear(7, 0.3) {
		t.Errorf("weekly period lost: %v", det.Top(3))
	}
}

// roundTripRequests is one request of every search family, query-by-burst
// over each window: by the values q (burstQ for the burst kinds) and by the
// IDs id (burstID).
func roundTripRequests(q, burstQ []float64, id, burstID int) []Request {
	return []Request{
		{Kind: KindSimilar, Values: q, K: 5},
		{Kind: KindSimilarID, ID: id, K: 5},
		{Kind: KindLinear, Values: q, K: 5},
		{Kind: KindDTW, ID: id, K: 5, Band: 7},
		{Kind: KindSimilarPeriods, ID: id, K: 5, Periods: []float64{7}},
		{Kind: KindBurst, Values: burstQ, K: 5, Window: Short},
		{Kind: KindBurstID, ID: burstID, K: 5, Window: Short},
		{Kind: KindBurst, Values: burstQ, K: 5, Window: Long},
		{Kind: KindBurstID, ID: burstID, K: 5, Window: Long},
	}
}

// sameAnswer fails unless got and want hold the same IDs in the same order
// with the same distance or score bits, and the same Stats.
func sameAnswer(t *testing.T, label string, got, want *Response) {
	t.Helper()
	if len(got.Neighbors) != len(want.Neighbors) || len(got.Matches) != len(want.Matches) || got.Stats != want.Stats {
		t.Fatalf("%s: %d neighbours, %d matches, %+v; want %d, %d, %+v", label,
			len(got.Neighbors), len(got.Matches), got.Stats, len(want.Neighbors), len(want.Matches), want.Stats)
	}
	for i, n := range got.Neighbors {
		if w := want.Neighbors[i]; n.ID != w.ID || math.Float64bits(n.Dist) != math.Float64bits(w.Dist) {
			t.Errorf("%s rank %d: %d@%v, want %d@%v", label, i, n.ID, n.Dist, w.ID, w.Dist)
		}
	}
	for i, m := range got.Matches {
		if w := want.Matches[i]; m.ID != w.ID || math.Float64bits(m.Score) != math.Float64bits(w.Score) {
			t.Errorf("%s rank %d: %d@%v, want %d@%v", label, i, m.ID, m.Score, w.ID, w.Score)
		}
	}
}

func TestEngineSaveErrors(t *testing.T) {
	g := querylog.NewGenerator(querylog.DefaultStart, 64, 31)
	e, err := NewEngine(g.Dataset(10), Config{Budget: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	file := filepath.Join(t.TempDir(), "not-a-dir")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := e.Save(file); err == nil {
		t.Error("Save into a regular file: want an error")
	}
}

// loadErrorCase is a directory LoadEngine refuses, with the Config it is
// opened with.
type loadErrorCase struct {
	name string
	dir  string
	cfg  Config
}

// loadErrorCases are the refusals TestLoadEngineErrors checks: a directory
// with no save in it, a save of another version, a valid save with one file
// removed, and a valid save opened with a config asking for shards or a
// dynamic index — a saved directory is one static engine, not served by
// something else.
func loadErrorCases(t *testing.T) []loadErrorCase {
	t.Helper()
	badVersion := t.TempDir()
	if err := os.WriteFile(filepath.Join(badVersion, "meta.txt"), []byte("version 99\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	g := querylog.NewGenerator(querylog.DefaultStart, 64, 32)
	e, err := NewEngine(g.Dataset(8), Config{Budget: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	save := func(without string) string {
		dir := t.TempDir()
		if err := e.Save(dir); err != nil {
			t.Fatal(err)
		}
		if without != "" {
			if err := os.Remove(filepath.Join(dir, without)); err != nil {
				t.Fatal(err)
			}
		}
		return dir
	}
	good := save("")
	cases := []loadErrorCase{
		{"an empty directory", t.TempDir(), Config{}},
		{"version 99", badVersion, Config{}},
	}
	for _, file := range []string{"raw.bin", "z.bin", "features.bin", "burst_long.bin"} {
		cases = append(cases, loadErrorCase{"a save without " + file, save(file), Config{}})
	}
	for _, cfg := range []Config{{Shards: 4}, {DynamicIndex: true}, {Shards: 4, DynamicIndex: true}} {
		cases = append(cases, loadErrorCase{fmt.Sprintf("a save under %+v", cfg), good, cfg})
	}
	return cases
}

// TestLoadEngineRefusesVersion1 opens a directory a build with a VP-tree
// saved (meta version 1, tree.bin): the error names the version.
func TestLoadEngineRefusesVersion1(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "meta.txt"), []byte("version 1\nstart 2002-01-01T00:00:00Z\nseqlen 64\ncount 8\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadEngine(dir, Config{}); err == nil || !strings.Contains(err.Error(), "version 1") {
		t.Fatalf("LoadEngine of a version 1 save = %v, want an error naming version 1", err)
	}
}

// TestSaveIntoTheLoadedDirectory saves a loaded engine into the directory it
// was loaded from, whose files it reads as it writes: the directory loads
// again and answers every request as before, with the same series bits.
func TestSaveIntoTheLoadedDirectory(t *testing.T) {
	dir := t.TempDir()
	g := querylog.NewGenerator(querylog.DefaultStart, 256, 30)
	data := append(g.Exemplars(), g.Dataset(40)...)
	orig, err := NewEngine(data, Config{Budget: 10})
	if err != nil {
		t.Fatal(err)
	}
	defer orig.Close()
	if err := orig.Save(dir); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadEngine(dir, Config{})
	if err != nil {
		t.Fatal(err)
	}
	leakcheck.Files(t, "Save into the loaded directory", func() {
		if err := loaded.Save(dir); err != nil {
			t.Fatalf("Save into the loaded directory: %v", err)
		}
	})
	defer loaded.Close()
	again, err := LoadEngine(dir, Config{})
	if err != nil {
		t.Fatalf("the directory does not load after the save: %v", err)
	}
	defer again.Close()
	id, _ := orig.Lookup(querylog.Cinema)
	hid, _ := orig.Lookup(querylog.Halloween)
	eid, _ := orig.Lookup(querylog.Easter)
	easter, _ := orig.Series(eid)
	for _, req := range roundTripRequests(g.Queries(1)[0].Values, easter.Values, id, hid) {
		want, err := orig.Query(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		got, err := again.Query(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		sameAnswer(t, req.Kind.String(), got, want)
	}
	for id := range orig.Len() {
		want, _ := orig.Series(id)
		got, err := again.Series(id)
		if err != nil {
			t.Fatal(err)
		}
		if !want.Start.Equal(got.Start) || !slices.Equal(got.Values, want.Values) {
			t.Fatalf("series %d changed across the save into its own directory", id)
		}
	}
}

func TestLoadEngineErrors(t *testing.T) {
	for _, c := range loadErrorCases(t) {
		if l, err := LoadEngine(c.dir, c.cfg); err == nil {
			l.Close()
			t.Errorf("LoadEngine of %s: loaded without an error", c.name)
		}
	}
}

// TestSaveBesideAdd saves a DynamicIndex engine over and over while a writer
// adds to it. Save holds the read lock, so under -race the pair is clean, and
// whichever snapshot was written last is whole: it loads, with as many names
// as rows as indexed entries.
func TestSaveBesideAdd(t *testing.T) {
	dir := t.TempDir()
	g := querylog.NewGenerator(querylog.DefaultStart, 128, 7)
	e, err := NewEngine(g.Dataset(16), Config{Budget: 8, DynamicIndex: true})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	extra := querylog.NewGenerator(querylog.DefaultStart, 128, 99).Queries(48)

	var wg sync.WaitGroup
	added := make(chan struct{})
	wg.Add(2)
	go func() { // writer
		defer wg.Done()
		defer close(added)
		for _, s := range extra {
			if _, err := e.Add(s); err != nil {
				t.Errorf("Add(%q): %v", s.Name, err)
			}
		}
	}()
	go func() { // saver: at least once, then until the writer is done
		defer wg.Done()
		for {
			if err := e.Save(dir); err != nil {
				t.Errorf("Save beside Add: %v", err)
				return
			}
			select {
			case <-added:
				return
			default:
			}
		}
	}()
	wg.Wait()
	if t.Failed() {
		return
	}

	loaded, err := LoadEngine(dir, Config{})
	if err != nil {
		t.Fatalf("last snapshot does not load: %v", err)
	}
	defer loaded.Close()
	n := loaded.Len()
	if n < 16 || n > 16+len(extra) {
		t.Fatalf("snapshot holds %d series, want between 16 and %d", n, 16+len(extra))
	}
	if len(loaded.names) != n || loaded.store.Len() != n || loaded.arena.Len() != n {
		t.Errorf("snapshot disagrees with itself: Len %d, %d names, %d rows, %d indexed",
			n, len(loaded.names), loaded.store.Len(), loaded.arena.Len())
	}
}

// A save directory whose files come from saves of different corpora does not
// load: each file is valid on its own, but the features or a burst table name
// sequences the directory does not hold (or misses some it does).
func TestLoadEngineRefusesMixedSaves(t *testing.T) {
	g := querylog.NewGenerator(querylog.DefaultStart, 256, 30)
	save := func(data []*series.Series) string {
		t.Helper()
		e, err := NewEngine(data, Config{Budget: 10})
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		dir := t.TempDir()
		if err := e.Save(dir); err != nil {
			t.Fatal(err)
		}
		return dir
	}
	data := append(g.Exemplars(), g.Dataset(40)...)
	large, small := save(data), save(data[:20])
	for _, c := range []struct {
		name     string
		from, to string
		files    []string
		want     error
	}{
		{"smaller corpus's features", small, large, []string{"features.bin"}, vptree.ErrCorrupt},
		{"larger corpus's features", large, small, []string{"features.bin"}, vptree.ErrCorrupt},
		{"larger corpus's burst tables", large, small, []string{"burst_short.bin", "burst_long.bin"}, burstdb.ErrCorrupt},
	} {
		dir := t.TempDir()
		for _, src := range []string{c.to, c.from} { // c.to's files, then c.from's over them
			entries, err := os.ReadDir(src)
			if err != nil {
				t.Fatal(err)
			}
			for _, ent := range entries {
				if src == c.from && !slices.Contains(c.files, ent.Name()) {
					continue
				}
				b, err := os.ReadFile(filepath.Join(src, ent.Name()))
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(filepath.Join(dir, ent.Name()), b, 0o644); err != nil {
					t.Fatal(err)
				}
			}
		}
		e, err := LoadEngine(dir, Config{})
		if !errors.Is(err, c.want) {
			if e != nil {
				e.Close()
			}
			t.Errorf("%s: LoadEngine = %v, want %v", c.name, err, c.want)
		}
	}
}
