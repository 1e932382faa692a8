//go:build linux

package core

import (
	"testing"

	"repro/internal/leakcheck"
	"repro/internal/querylog"
)

// A loaded engine holds raw.bin and z.bin open until its Close, and a load
// that fails, wherever it fails, closes whatever it opened.
func TestLoadEngineClosesItsFiles(t *testing.T) {
	g := querylog.NewGenerator(querylog.DefaultStart, 64, 32)
	e, err := NewEngine(g.Dataset(8), Config{Budget: 4})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := e.Save(dir); err != nil {
		t.Fatal(err)
	}
	e.Close()
	leakcheck.Files(t, "LoadEngine and Close", func() {
		l, err := LoadEngine(dir, Config{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := l.Series(3); err != nil {
			t.Error(err)
		}
		if err := l.Close(); err != nil {
			t.Error(err)
		}
	})
	for _, c := range loadErrorCases(t) {
		leakcheck.Files(t, "LoadEngine of "+c.name, func() {
			if l, err := LoadEngine(c.dir, c.cfg); err == nil {
				l.Close()
				t.Errorf("LoadEngine of %s: loaded without an error", c.name)
			}
		})
	}
}
