package shard

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/querylog"
	"repro/internal/seqstore"
	"repro/internal/series"
)

// writeGenlog writes data in cmd/genlog's binary format — a seqstore file
// and its ".names" sidecar — with the sidecar cut to the first named rows.
func writeGenlog(t *testing.T, data []*series.Series, named int) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "corpus.bin")
	st, err := seqstore.Create(path, data[0].Len())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	var names bytes.Buffer
	for i, s := range data {
		if _, err := st.Append(s.Values); err != nil {
			t.Fatal(err)
		}
		if i < named {
			fmt.Fprintln(&names, s.Name)
		}
	}
	if err := os.WriteFile(path+".names", names.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// openGenlog is what `s2 -load` builds from a genlog binary: the file as a
// core.FileSource.
func openGenlog(t *testing.T, path string) core.Source {
	t.Helper()
	st, names, err := querylog.OpenBinary(path)
	if err != nil {
		t.Fatal(err)
	}
	return core.FileSource(st, names, querylog.DefaultStart)
}

// An engine over a genlog file read on demand is the engine over the same
// file loaded into the heap, single and sharded: the same names, the same
// original series bit for bit, the same answers and Stats for every family
// that reads the index, the rows or the burst tables, and the same saved
// bytes. The corpus is 600 series, not a multiple of the derive stage's
// 256-series block, and the names sidecar stops short of the last rows, which
// get synthetic names.
func TestFileSourceMatchesSlice(t *testing.T) {
	const rows, days, named = 600, 128, 563
	gen := querylog.NewGenerator(querylog.DefaultStart, days, 21)
	path := writeGenlog(t, gen.Dataset(rows), named)
	query := gen.Queries(1)[0].Values
	data, err := querylog.LoadBinary(path, querylog.DefaultStart)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := data[rows-1].Name, fmt.Sprintf("series-%05d", rows-1); got != want {
		t.Fatalf("row %d is named %q, want the synthetic %q", rows-1, got, want)
	}

	var reqs []core.Request
	for _, id := range []int{0, 7, named - 1, named, rows - 1} {
		reqs = append(reqs,
			core.Request{Kind: core.KindSimilarID, ID: id, K: 6},
			core.Request{Kind: core.KindLinear, ID: id, K: 6},
			core.Request{Kind: core.KindDTW, ID: id, K: 4, Band: 5},
			core.Request{Kind: core.KindSimilarPeriods, ID: id, K: 5, Periods: []float64{7, 16}},
			core.Request{Kind: core.KindBurstID, ID: id, K: 5, Window: core.Short},
			core.Request{Kind: core.KindBurstID, ID: id, K: 5, Window: core.Long})
	}
	reqs = append(reqs,
		core.Request{Kind: core.KindSimilar, Values: query, K: 8},
		core.Request{Kind: core.KindLinear, Values: query, K: 8},
		core.Request{Kind: core.KindBurst, Values: query, K: 8, Window: core.Long})

	ctx := context.Background()
	for _, shards := range []int{1, 3} {
		cfg := core.Config{Budget: 8, Workers: 2, Shards: shards}
		fromSlice, err := NewFromConfig(data, cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer fromSlice.Close()
		fromFile, err := NewFromSource(openGenlog(t, path), cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer fromFile.Close()
		label := fmt.Sprintf("%d shard(s)", shards)

		if fromFile.Len() != rows || fromFile.SeqLen() != days {
			t.Fatalf("%s: %d × %d from the file, want %d × %d", label, fromFile.Len(), fromFile.SeqLen(), rows, days)
		}
		for id := range rows {
			if got, want := fromFile.Name(id), fromSlice.Name(id); got != want {
				t.Fatalf("%s: name %d = %q, want %q", label, id, got, want)
			}
			got, err := fromFile.Series(id)
			if err != nil {
				t.Fatal(err)
			}
			want, err := fromSlice.Series(id)
			if err != nil {
				t.Fatal(err)
			}
			if got.ID != want.ID || got.Name != want.Name || !got.Start.Equal(want.Start) || !sameBits(got.Values, want.Values) {
				t.Fatalf("%s: Series(%d) = {%d %q %v}, want {%d %q %v}, or its values differ",
					label, id, got.ID, got.Name, got.Start, want.ID, want.Name, want.Start)
			}
		}
		for _, req := range reqs {
			want, err := fromSlice.Query(ctx, req)
			if err != nil {
				t.Fatalf("%s: %s from the slice: %v", label, req.Kind, err)
			}
			got, err := fromFile.Query(ctx, req)
			if err != nil {
				t.Fatalf("%s: %s from the file: %v", label, req.Kind, err)
			}
			what := fmt.Sprintf("%s: %s of %d", label, req.Kind, req.ID)
			requireSameResponse(t, what, want, got)
			if got.Stats != want.Stats {
				t.Fatalf("%s: Stats %+v, want %+v", what, got.Stats, want.Stats)
			}
		}

		single, ok := fromFile.(*core.Engine)
		if !ok {
			continue
		}
		sliceEngine := fromSlice.(*core.Engine)
		for _, id := range []int{3, rows - 2} {
			got, err := single.PeriodsOf(id)
			if err != nil {
				t.Fatal(err)
			}
			want, err := sliceEngine.PeriodsOf(id)
			if err != nil {
				t.Fatal(err)
			}
			if fmt.Sprint(got.Periods) != fmt.Sprint(want.Periods) {
				t.Fatalf("PeriodsOf(%d) = %v, want %v", id, got.Periods, want.Periods)
			}
		}
		got, err := single.PeriodsOfSet([]int{1, 2, named, rows - 1})
		if err != nil {
			t.Fatal(err)
		}
		want, err := sliceEngine.PeriodsOfSet([]int{1, 2, named, rows - 1})
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(got.Periods) != fmt.Sprint(want.Periods) {
			t.Fatalf("PeriodsOfSet = %v, want %v", got.Periods, want.Periods)
		}
		requireSameSave(t, sliceEngine, single)
	}
}

// requireSameSave saves both engines and compares the directories file by
// file, byte for byte.
func requireSameSave(t *testing.T, want, got *core.Engine) {
	t.Helper()
	wantDir, gotDir := t.TempDir(), t.TempDir()
	if err := want.Save(wantDir); err != nil {
		t.Fatal(err)
	}
	if err := got.Save(gotDir); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(wantDir)
	if err != nil {
		t.Fatal(err)
	}
	if gotEntries, err := os.ReadDir(gotDir); err != nil || len(gotEntries) != len(entries) {
		t.Fatalf("saved %d files (%v), want %d", len(gotEntries), err, len(entries))
	}
	for _, ent := range entries {
		w, err := os.ReadFile(filepath.Join(wantDir, ent.Name()))
		if err != nil {
			t.Fatal(err)
		}
		g, err := os.ReadFile(filepath.Join(gotDir, ent.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(g, w) {
			t.Errorf("saved %s differs (%d bytes, want %d)", ent.Name(), len(g), len(w))
		}
	}
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}
