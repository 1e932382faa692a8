package vptree

import (
	"bytes"
	"encoding/binary"
	"errors"
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
	// Searches on the loaded tree return identical answers and Stats.
	for _, q := range fx.queries {
		want := searchWith(t, fx.tree, q, 3, 0, fx.tree.Features(), fx.store, nil)
		sameOutcome(t, "loaded", searchWith(t, loaded, q, 3, 0, loaded.Features(), fx.store, nil), want)
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

// offsets locates fields of a saved tree: the header's object count n, the
// byte after the first internal node's IDs (always 0), given that the node
// section starts with one, and the first leaf's first ref.
func offsets(t testing.TB, data []byte) (nAt, zeroAt, refAt int) {
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
	zeroAt = p + 1 + 4 + 4
	for data[p] == tagInternal {
		p += 1 + 4 + 4 + 1 + 8
	}
	return nAt0, zeroAt, p + 1 + 4 + 4
}

// named counts the distinct sequence IDs a flat index names: its leaf
// entries' and its vantage points'.
func named(f *flatIndex) int {
	ids := map[int]bool{}
	for _, fn := range f.nodes {
		if fn.leafLo < 0 {
			ids[fn.vpID] = true
			continue
		}
		for _, id := range f.leafIDs[fn.leafLo:fn.leafHi] {
			ids[id] = true
		}
	}
	return len(ids)
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
	// What no Save writes: a header method, budget or leaf size of 0, a
	// method no feature has or none at all, the reserved byte set, a header
	// count other than the objects the node section names, a ref named
	// twice, and the first leaf entry naming the root's sequence ID.
	nAt, zeroAt, refAt := offsets(t, data)
	for name, mutate := range map[string]func(b []byte){
		"method 0":          func(b []byte) { b[8] = 0 },
		"budget 0":          func(b []byte) { b[9] = 0 },
		"leaf size 0":       func(b []byte) { b[13] = 0 },
		"unknown method":    func(b []byte) { b[8] = 0xff },
		"another method":    func(b []byte) { b[8] = byte(spectral.Wang) },
		"tombstone byte 1":  func(b []byte) { b[zeroAt] = 1 },
		"n one low":         func(b []byte) { binary.LittleEndian.PutUint32(b[nAt:], uint32(fx.tree.Len()-1)) },
		"n one high":        func(b []byte) { binary.LittleEndian.PutUint32(b[nAt:], uint32(fx.tree.Len()+1)) },
		"a ref named twice": func(b []byte) { copy(b[refAt:refAt+4], b[zeroAt-4:zeroAt]) },
		"an ID named twice": func(b []byte) { copy(b[refAt-4:refAt], b[zeroAt-8:zeroAt-4]) },
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
// of distinct sequences its node section names, which saves back byte for
// byte and whose searches do not panic; the unchanged file loads.
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
	// saved, its first reserved byte set to 1, n one low, the header's
	// method, budget and leaf size each zeroed in its low byte, and the first
	// leaf entry given the root's sequence ID (37).
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
		if got := named(tr.flat); tr.Len() != got {
			t.Fatalf("Len %d, but the node section names %d distinct sequences", tr.Len(), got)
		}
		again := filepath.Join(t.TempDir(), "again.bin")
		if err := tr.Save(again); err != nil {
			t.Fatal(err)
		}
		if back, err := os.ReadFile(again); err != nil || !bytes.Equal(back, mut) {
			t.Fatalf("a file Load accepts saves back differently (err %v, first difference at byte %d)", err, firstDiff(back, mut))
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
	want := searchWith(t, fx.tree, q, 1, 0, fx.tree.Features(), fx.store, nil)
	sameOutcome(t, "loaded", searchWith(t, loaded, q, 1, 0, loaded.Features(), fx.store, nil), want)
}

// ReadFeatures reads back what WriteFeatures wrote, feature for feature, and
// refuses a file cut short, one with bytes past its last record, and one
// naming a coefficient its spectrum does not have.
func TestReadFeaturesRoundTripAndRefusals(t *testing.T) {
	fx := buildFixture(t, 30, 64, Options{Budget: 8}, 3)
	path := filepath.Join(t.TempDir(), "features.bin")
	d, err := WriteFeatures(path, fx.tree.Features())
	if err != nil {
		t.Fatal(err)
	}
	d.Close()
	got, err := ReadFeatures(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != fx.tree.Len() {
		t.Fatalf("read %d features, wrote %d", len(got), fx.tree.Len())
	}
	for i, c := range got {
		if !bytes.Equal(encodeFeature(c), encodeFeature(fx.tree.Features()[i])) {
			t.Fatalf("feature %d reads back as %+v", i, c)
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	badBin := bytes.Clone(data)
	binary.LittleEndian.PutUint16(badBin[8+23:], 33) // feature 0's first coefficient: bin 33 of a 64-point spectrum's 0…32
	for name, b := range map[string][]byte{
		"cut short":     data[:len(data)-1],
		"trailing byte": append(bytes.Clone(data), 0),
		"bin past N/2":  badBin,
		"no header":     data[:4],
	} {
		bad := filepath.Join(t.TempDir(), "bad.bin")
		if err := os.WriteFile(bad, b, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadFeatures(bad); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: ReadFeatures = %v, want ErrCorrupt", name, err)
		}
	}
}
