package burstdb

import (
	"cmp"
	"errors"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/burst"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	db := New()
	for i := 0; i < 300; i++ {
		s := int64(rng.Intn(1000))
		db.Insert(Record{
			SeqID: int64(rng.Intn(50)),
			Start: s,
			End:   s + int64(rng.Intn(40)),
			Avg:   rng.NormFloat64(),
		})
	}
	path := filepath.Join(t.TempDir(), "bursts.bin")
	if err := db.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Len() != db.Len() {
		t.Fatalf("Len %d vs %d", loaded.Len(), db.Len())
	}
	if loaded.Sequences() != db.Sequences() {
		t.Fatalf("Sequences %d vs %d", loaded.Sequences(), db.Sequences())
	}
	// Overlap queries agree on all plans.
	for trial := 0; trial < 10; trial++ {
		qs := int64(rng.Intn(1000))
		qe := qs + int64(rng.Intn(80))
		want, _, err := db.Overlapping(qs, qe, PlanFullScan)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := loaded.Overlapping(qs, qe, PlanAuto)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d vs %d rows", trial, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d row %d: %v vs %v", trial, i, got[i], want[i])
			}
		}
	}
}

func TestSaveLoadEmpty(t *testing.T) {
	path := filepath.Join(t.TempDir(), "empty.bin")
	if err := New().Save(path); err != nil {
		t.Fatal(err)
	}
	db, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if db.Len() != 0 {
		t.Errorf("Len = %d", db.Len())
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.bin")
	if err := os.WriteFile(bad, []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(bad); err == nil {
		t.Error("expected error for garbage")
	}
	if _, err := Load(filepath.Join(dir, "missing.bin")); err == nil {
		t.Error("expected error for missing file")
	}
	// Truncation and trailing junk.
	db := New()
	db.Insert(Record{SeqID: 1, Start: 2, End: 3, Avg: 0.5})
	good := filepath.Join(dir, "good.bin")
	if err := db.Save(good); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(good)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "trunc.bin"), data[:len(data)-4], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(filepath.Join(dir, "trunc.bin")); err == nil {
		t.Error("expected error for truncated dump")
	}
	if err := os.WriteFile(filepath.Join(dir, "junk.bin"), append(data, 1), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(filepath.Join(dir, "junk.bin")); err == nil {
		t.Error("expected error for trailing junk")
	}
}

// sortedRun returns (key, rid) order on both of its paths: the counting sort
// (keys over fewer values than rows, here also just below the largest
// int64) and the comparison sort (any wider spread, out to both limits).
func TestSortedRunIsKeyRIDOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	starts := map[string]func() int64{
		"narrow":            func() int64 { return -100 + rng.Int63n(20) },
		"narrow at the top": func() int64 { return math.MaxInt64 - 40 - rng.Int63n(20) },
		"wide":              func() int64 { return rng.Int63n(100_000) },
		"both limits":       func() int64 { return []int64{math.MinInt64, -1, 0, math.MaxInt64 - 40}[rng.Intn(4)] },
	}
	for name, start := range starts {
		rows := make([]Record, 200)
		for i := range rows {
			s := start()
			rows[i] = Record{SeqID: int64(i), Start: s, End: s + rng.Int63n(40)}
		}
		for _, byEnd := range []bool{false, true} {
			key := func(rid int64) int64 {
				if byEnd {
					return rows[rid].End
				}
				return rows[rid].Start
			}
			want := make([]int64, len(rows))
			for i := range want {
				want[i] = int64(i)
			}
			slices.SortStableFunc(want, func(a, b int64) int { return cmp.Compare(key(a), key(b)) })
			keys, rids := sortedRun(rows, byEnd)
			if !slices.Equal(rids, want) {
				t.Fatalf("%s, by end %v: row order %v, want %v", name, byEnd, rids, want)
			}
			for i, rid := range rids {
				if keys[i] != key(rid) {
					t.Fatalf("%s, by end %v: key %d of row %d is %d", name, byEnd, i, rid, keys[i])
				}
			}
		}
	}
}

// A row that ends before it starts is refused where it enters the table —
// Insert, InsertBursts (which then stores none of the sequence's bursts) and
// FromRecords — so every table Save writes is one Load reads back.
func TestInsertRefusesWhatLoadRefuses(t *testing.T) {
	db := New()
	if _, err := db.Insert(Record{SeqID: 1, Start: 5, End: 4}); !errors.Is(err, ErrBadRange) {
		t.Errorf("Insert of [5, 4]: %v, want ErrBadRange", err)
	}
	if _, err := db.InsertBursts(2, []burst.Burst{{Start: 1, End: 3}, {Start: 9, End: 8}}); !errors.Is(err, ErrBadRange) {
		t.Errorf("InsertBursts with [9, 8]: %v, want ErrBadRange", err)
	}
	if db.Len() != 0 || db.Sequences() != 0 {
		t.Fatalf("refused rows left %d rows over %d sequences", db.Len(), db.Sequences())
	}
	if _, err := FromRecords([]Record{{SeqID: 3, Start: 1, End: 0}}); !errors.Is(err, ErrBadRange) {
		t.Errorf("FromRecords with [1, 0]: %v, want ErrBadRange", err)
	}

	if _, err := db.Insert(Record{SeqID: 1, Start: 7, End: 7, Avg: 0.5}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.InsertBursts(2, []burst.Burst{{Start: 9, End: 12, Avg: 2}, {Start: 1, End: 3, Avg: 1}}); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "bursts.bin")
	if err := db.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(path)
	if err != nil {
		t.Fatalf("Load of the table's own dump: %v", err)
	}
	for _, seq := range []int64{1, 2} {
		if got, want := loaded.BurstsOf(seq), db.BurstsOf(seq); !slices.Equal(got, want) {
			t.Errorf("sequence %d: reloaded bursts %v, saved %v", seq, got, want)
		}
	}
	got, _, err := loaded.Overlapping(0, 20, PlanAuto)
	if err != nil {
		t.Fatal(err)
	}
	if want, _, _ := db.Overlapping(0, 20, PlanFullScan); !slices.Equal(got, want) {
		t.Errorf("reloaded rows %v, saved %v", got, want)
	}
}
