package vptree

import (
	"bytes"
	"encoding/binary"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/spectral"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	fx := buildFixture(t, 120, 128, Options{Budget: 12}, 50)
	path := filepath.Join(t.TempDir(), "tree.bin")
	if err := fx.tree.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Len() != fx.tree.Len() || loaded.SeqLen() != fx.tree.SeqLen() {
		t.Fatalf("Len/SeqLen: %d/%d vs %d/%d",
			loaded.Len(), loaded.SeqLen(), fx.tree.Len(), fx.tree.SeqLen())
	}
	if loaded.Height() != fx.tree.Height() {
		t.Errorf("height %d vs %d", loaded.Height(), fx.tree.Height())
	}
	// Searches on the loaded tree return identical answers.
	for _, q := range fx.queries {
		want, _, err := fx.tree.Search(q, 3, fx.tree.Features(), fx.store)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := loaded.Search(q, 3, loaded.Features(), fx.store)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("result count %d vs %d", len(got), len(want))
		}
		for i := range want {
			if got[i].ID != want[i].ID || math.Abs(got[i].Dist-want[i].Dist) > 1e-12 {
				t.Errorf("rank %d: %+v vs %+v", i, got[i], want[i])
			}
		}
	}
	// Loaded trees are static.
	h, err := spectral.FromValues(fx.values[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := loaded.Insert(h, 999); err != ErrStatic {
		t.Errorf("Insert on loaded tree: %v", err)
	}
}

// layout locates two fields of a saved tree: the header's object count n,
// and the byte after the first internal node's IDs (always 0), given that the
// node section starts with one.
func layout(t testing.TB, data []byte) (nAt, zeroAt int) {
	t.Helper()
	const nAt0 = 4 + 4 + 1 + 4 + 4 + 4 // magic, version, method, budget, leafSize, seqLen
	p := nAt0 + 4
	feats := binary.LittleEndian.Uint32(data[p:])
	p += 4
	for i := uint32(0); i < feats; i++ {
		p += 4 + int(binary.LittleEndian.Uint32(data[p:]))
	}
	if data[p] != tagInternal {
		t.Fatal("the saved tree's root is a leaf")
	}
	return nAt0, p + 1 + 4 + 4
}

// named counts the objects a subtree names: its leaf entries and its vantage
// points.
func named(nd *node) int {
	if nd.leaf != nil {
		return len(nd.leaf)
	}
	return 1 + named(nd.left) + named(nd.right)
}

func TestLoadRejectsGarbage(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.bin")
	if err := os.WriteFile(bad, []byte("not a tree file at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(bad); err == nil {
		t.Error("expected error for garbage file")
	}
	if _, err := Load(filepath.Join(dir, "missing.bin")); err == nil {
		t.Error("expected error for missing file")
	}
	// Truncated valid file.
	fx := buildFixture(t, 20, 64, Options{Budget: 6}, 52)
	good := filepath.Join(dir, "good.bin")
	if err := fx.tree.Save(good); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(good)
	if err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{10, len(data) / 2, len(data) - 3} {
		trunc := filepath.Join(dir, "trunc.bin")
		if err := os.WriteFile(trunc, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Load(trunc); err == nil {
			t.Errorf("expected error for file truncated at %d", cut)
		}
	}
	// Trailing junk.
	junk := filepath.Join(dir, "junk.bin")
	if err := os.WriteFile(junk, append(data, 0xFF), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(junk); err == nil {
		t.Error("expected error for trailing junk")
	}
	// What no Save writes: the reserved byte set, and a header
	// count other than the objects the node section names.
	nAt, zeroAt := layout(t, data)
	for name, mutate := range map[string]func(b []byte){
		"tombstone byte 1": func(b []byte) { b[zeroAt] = 1 },
		"n one low":        func(b []byte) { binary.LittleEndian.PutUint32(b[nAt:], uint32(fx.tree.Len()-1)) },
		"n one high":       func(b []byte) { binary.LittleEndian.PutUint32(b[nAt:], uint32(fx.tree.Len()+1)) },
	} {
		mut := bytes.Clone(data)
		mutate(mut)
		path := filepath.Join(dir, "mutant.bin")
		if err := os.WriteFile(path, mut, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Load(path); err != ErrCorrupt {
			t.Errorf("%s: Load err = %v, want ErrCorrupt", name, err)
		}
	}
}

// FuzzTreeLoad sets one byte of a saved 40-series tree and truncates it.
// Load either refuses the result, or returns a tree whose Len is the number
// of objects its node section names and whose searches do not panic; the
// unchanged file loads.
func FuzzTreeLoad(f *testing.F) {
	fx := buildFixture(f, 40, 64, Options{Budget: 6, Seed: 3}, 61)
	dir := f.TempDir()
	good := filepath.Join(dir, "good.bin")
	if err := fx.tree.Save(good); err != nil {
		f.Fatal(err)
	}
	data, err := os.ReadFile(good)
	if err != nil {
		f.Fatal(err)
	}
	// The checked-in seeds (testdata/fuzz/FuzzTreeLoad) are the file as
	// saved, its first reserved byte set to 1, and n one low.
	f.Fuzz(func(t *testing.T, at uint32, val byte, keep uint32) {
		mut := bytes.Clone(data)
		if int(at) < len(mut) {
			mut[at] = val
		}
		if int(keep) < len(mut) {
			mut = mut[:keep]
		}
		path := filepath.Join(t.TempDir(), "tree.bin")
		if err := os.WriteFile(path, mut, 0o644); err != nil {
			t.Fatal(err)
		}
		tr, err := Load(path)
		if err != nil {
			if bytes.Equal(mut, data) {
				t.Fatalf("the saved file does not load: %v", err)
			}
			return
		}
		if got := named(tr.root); tr.Len() != got {
			t.Fatalf("Len %d, but the node section names %d objects", tr.Len(), got)
		}
		for _, q := range fx.queries {
			tr.Search(q, 5, tr.Features(), fx.store) // may fail; must not panic
		}
	})
}

func TestSaveLoadEnergyFractionTree(t *testing.T) {
	fx := buildFixture(t, 50, 64, Options{EnergyFraction: 0.9}, 53)
	path := filepath.Join(t.TempDir(), "etree.bin")
	if err := fx.tree.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	q := fx.queries[0]
	want, _, err := fx.tree.Search(q, 1, fx.tree.Features(), fx.store)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := loaded.Search(q, 1, loaded.Features(), fx.store)
	if err != nil {
		t.Fatal(err)
	}
	if got[0].ID != want[0].ID || math.Abs(got[0].Dist-want[0].Dist) > 1e-12 {
		t.Errorf("%+v vs %+v", got[0], want[0])
	}
}
