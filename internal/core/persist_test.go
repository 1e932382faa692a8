package core

import (
	"errors"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"

	"repro/internal/burstdb"
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
	// Searches agree exactly.
	for _, q := range g.Queries(3) {
		a, _, err := similarQueries(orig, q.Values, 3)
		if err != nil {
			t.Fatal(err)
		}
		b, _, err := similarQueries(loaded, q.Values, 3)
		if err != nil {
			t.Fatal(err)
		}
		for i := range a {
			if a[i].ID != b[i].ID || math.Abs(a[i].Dist-b[i].Dist) > 1e-12 {
				t.Errorf("rank %d: %+v vs %+v", i, a[i], b[i])
			}
		}
	}
	// Burst features and query-by-burst survive.
	hid, _ := loaded.Lookup(querylog.Halloween)
	bo := orig.BurstsOf(hid, Long)
	bl := loaded.BurstsOf(hid, Long)
	if len(bo) != len(bl) {
		t.Fatalf("burst features %d vs %d", len(bl), len(bo))
	}
	mo, err := queryByBurstOf(orig, hid, 3, Long)
	if err != nil {
		t.Fatal(err)
	}
	ml, err := queryByBurstOf(loaded, hid, 3, Long)
	if err != nil {
		t.Fatal(err)
	}
	if len(mo) != len(ml) {
		t.Fatalf("qbb results %d vs %d", len(ml), len(mo))
	}
	for i := range mo {
		if mo[i].ID != ml[i].ID || math.Abs(mo[i].Score-ml[i].Score) > 1e-12 {
			t.Errorf("qbb rank %d: %+v vs %+v", i, ml[i], mo[i])
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

func TestLoadEngineErrors(t *testing.T) {
	dir := t.TempDir()
	if _, err := LoadEngine(dir, Config{}); err == nil {
		t.Error("expected error for empty dir")
	}
	// Corrupt meta.
	if err := os.WriteFile(filepath.Join(dir, "meta.txt"), []byte("version 99\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadEngine(dir, Config{}); err == nil {
		t.Error("expected version error")
	}
	// Valid save with one file removed.
	g := querylog.NewGenerator(querylog.DefaultStart, 64, 32)
	e, err := NewEngine(g.Dataset(8), Config{Budget: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	good := t.TempDir()
	if err := e.Save(good); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(good, "tree.bin")); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadEngine(good, Config{}); err == nil {
		t.Error("expected error for missing tree file")
	}
}

// TestSaveBesideAdd saves a DynamicIndex engine over and over while a writer
// adds to it. Save holds the read lock, so under -race the pair is clean, and
// whichever snapshot was written last is whole: it loads, with as many names
// as rows as indexed entries.
func TestSaveBesideAdd(t *testing.T) {
	dir := t.TempDir()
	g := querylog.NewGenerator(querylog.DefaultStart, 128, 7)
	e, err := NewEngine(g.Dataset(16), Config{Budget: 8, Seed: 7, DynamicIndex: true})
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
	if len(loaded.names) != n || loaded.store.Len() != n || loaded.tree.Len() != n {
		t.Errorf("snapshot disagrees with itself: Len %d, %d names, %d rows, %d indexed",
			n, len(loaded.names), loaded.store.Len(), loaded.tree.Len())
	}
}

// A save directory whose files come from saves of different corpora does not
// load: each file is valid on its own, but the tree or a burst table names
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
		{"smaller corpus's tree", small, large, []string{"tree.bin"}, vptree.ErrCorrupt},
		{"larger corpus's tree", large, small, []string{"tree.bin"}, vptree.ErrCorrupt},
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
