package main

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/querylog"
)

func TestRunCSV(t *testing.T) {
	out := filepath.Join(t.TempDir(), "d.csv")
	if err := run(7, 32, 1, "csv", out, false); err != nil {
		t.Fatal(err)
	}
	data, err := querylog.LoadCSVFile(out, querylog.DefaultStart)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != 7 || data[0].Len() != 32 {
		t.Fatalf("loaded %d series of %d days", len(data), data[0].Len())
	}
}

func TestRunBinary(t *testing.T) {
	out := filepath.Join(t.TempDir(), "d.bin")
	if err := run(5, 16, 2, "binary", out, false); err != nil {
		t.Fatal(err)
	}
	data, err := querylog.LoadBinary(out, querylog.DefaultStart)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != 5 || data[0].Len() != 16 {
		t.Fatalf("loaded %d series of %d days", len(data), data[0].Len())
	}
	if data[0].Name == "" {
		t.Error("names sidecar not applied")
	}
}

func TestRunExemplars(t *testing.T) {
	out := filepath.Join(t.TempDir(), "e.csv")
	if err := run(0, 64, 1, "csv", out, true); err != nil {
		t.Fatal(err)
	}
	data, err := querylog.LoadCSVFile(out, querylog.DefaultStart)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != len(querylog.ExemplarNames()) {
		t.Fatalf("%d exemplars", len(data))
	}
	found := false
	for _, s := range data {
		if s.Name == querylog.Cinema {
			found = true
		}
	}
	if !found {
		t.Error("cinema exemplar missing")
	}
}

func TestRunErrors(t *testing.T) {
	if err := run(1, 8, 1, "parquet", filepath.Join(t.TempDir(), "x"), false); err == nil {
		t.Error("expected unknown-format error")
	}
	if err := run(1, 8, 1, "csv", "/nonexistent-dir/file.csv", false); err == nil {
		t.Error("expected create error")
	}
	if err := run(1, 8, 1, "binary", "/nonexistent-dir/file.bin", false); err == nil {
		t.Error("expected create error (binary)")
	}
	for _, c := range []struct{ n, days int }{{1, 0}, {1, -5}, {-3, 8}} {
		out := filepath.Join(t.TempDir(), "x.csv")
		if err := run(c.n, c.days, 1, "csv", out, false); err == nil {
			t.Errorf("-n %d -days %d: expected an error", c.n, c.days)
		}
		if _, err := os.Stat(out); err == nil {
			t.Errorf("-n %d -days %d: wrote %s anyway", c.n, c.days, out)
		}
	}
}

// CSV and binary round trips produce identical values for the same seed.
func TestFormatsAgree(t *testing.T) {
	dir := t.TempDir()
	csvPath := filepath.Join(dir, "d.csv")
	binPath := filepath.Join(dir, "d.bin")
	if err := run(4, 16, 9, "csv", csvPath, false); err != nil {
		t.Fatal(err)
	}
	if err := run(4, 16, 9, "binary", binPath, false); err != nil {
		t.Fatal(err)
	}
	a, err := querylog.LoadCSVFile(csvPath, querylog.DefaultStart)
	if err != nil {
		t.Fatal(err)
	}
	b, err := querylog.LoadBinary(binPath, querylog.DefaultStart)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i].Name != b[i].Name {
			t.Errorf("series %d: name %q vs %q", i, a[i].Name, b[i].Name)
		}
		for j := range a[i].Values {
			if a[i].Values[j] != b[i].Values[j] {
				t.Fatalf("series %d value %d: %v vs %v", i, j, a[i].Values[j], b[i].Values[j])
			}
		}
	}
}
