package vptree

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/querylog"
	"repro/internal/spectral"
)

// goldenDynamicTree is a dynamic tree after a seeded insert sequence that
// grows leaves in place, moves them where they have room, splits them and
// repacks the flat index, each at least twice.
func goldenDynamicTree(t *testing.T) *Tree {
	t.Helper()
	const seqLen = 64
	fx := buildFixture(t, 40, seqLen, Options{Dynamic: true, Budget: 4, LeafSize: 3, Seed: 11}, 71)
	tr := fx.tree
	var grown, moved, splits int
	g := querylog.NewGenerator(querylog.DefaultStart, seqLen, 73)
	for i, s := range querylog.StandardizeAll(g.Dataset(80)) {
		spec, err := spectral.FromValues(s.Values)
		if err != nil {
			t.Fatal(err)
		}
		nodes, abandoned, repacks := len(tr.flat.nodes), tr.flat.abandoned, tr.KernelStats().Repacks
		if err := tr.Insert(spec, 40+i); err != nil {
			t.Fatal(err)
		}
		switch {
		case tr.KernelStats().Repacks > repacks:
		case len(tr.flat.nodes) > nodes:
			splits++
		case tr.flat.abandoned > abandoned:
			moved++
		default:
			grown++
		}
	}
	if ks := tr.KernelStats(); grown < 2 || moved < 2 || splits < 2 || ks.Repacks < 2 {
		t.Fatalf("the inserts grew %d leaves in place, moved %d, split %d and repacked %d times; the golden needs two of each",
			grown, moved, splits, ks.Repacks)
	}
	return tr
}

// The bytes Save writes, pinned for three trees: a seeded static build, a
// dynamic tree after inserts (goldenDynamicTree) and an energy-fraction tree.
// Each file also loads and saves back byte for byte.
func TestGoldenTreeFiles(t *testing.T) {
	trees := []struct {
		name string
		tree func(t *testing.T) *Tree
	}{
		{"static.tree.bin", func(t *testing.T) *Tree {
			return buildFixture(t, 60, 64, Options{Budget: 6, LeafSize: 5, Seed: 7}, 67).tree
		}},
		{"dynamic.tree.bin", goldenDynamicTree},
		{"energy.tree.bin", func(t *testing.T) *Tree {
			return buildFixture(t, 40, 64, Options{EnergyFraction: 0.8, LeafSize: 4, Seed: 9}, 79).tree
		}},
	}
	for _, c := range trees {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			saved := filepath.Join(dir, "saved.bin")
			if err := c.tree(t).Save(saved); err != nil {
				t.Fatal(err)
			}
			got, err := os.ReadFile(saved)
			if err != nil {
				t.Fatal(err)
			}
			golden := filepath.Join("testdata", c.name)
			if *updateGolden {
				if err := os.WriteFile(golden, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("Save wrote %d bytes, the golden has %d; first difference at byte %d", len(got), len(want), firstDiff(got, want))
			}
			loaded, err := Load(golden)
			if err != nil {
				t.Fatal(err)
			}
			again := filepath.Join(dir, "again.bin")
			if err := loaded.Save(again); err != nil {
				t.Fatal(err)
			}
			if back, err := os.ReadFile(again); err != nil || !bytes.Equal(back, want) {
				t.Fatalf("the loaded golden saves back differently (err %v, first difference at byte %d)", err, firstDiff(back, want))
			}
		})
	}
}

// firstDiff is the first offset at which a and b differ.
func firstDiff(a, b []byte) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}
