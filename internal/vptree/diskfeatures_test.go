package vptree

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

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
