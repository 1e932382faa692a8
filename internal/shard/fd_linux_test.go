//go:build linux

package shard

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/leakcheck"
	"repro/internal/querylog"
)

// An engine built from a genlog file holds it open until its Close, single
// or sharded, and a build it refuses closes it at once.
func TestFileSourceClosesItsFile(t *testing.T) {
	gen := querylog.NewGenerator(querylog.DefaultStart, 64, 4)
	path := writeGenlog(t, gen.Dataset(40), 40)
	for _, shards := range []int{1, 3} {
		cfg := core.Config{Budget: 8, Shards: shards}
		leakcheck.Files(t, fmt.Sprintf("a file-sourced build and Close on %d shard(s)", shards), func() {
			s, err := NewFromSource(openGenlog(t, path), cfg)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s.Series(5); err != nil {
				t.Error(err)
			}
			if err := s.Close(); err != nil {
				t.Error(err)
			}
		})
		cfg.DynamicIndex = true
		leakcheck.Files(t, fmt.Sprintf("a file-sourced build refused on %d shard(s)", shards), func() {
			if s, err := NewFromSource(openGenlog(t, path), cfg); err == nil {
				s.Close()
				t.Errorf("%d shard(s): a DynamicIndex engine over a file was built", shards)
			}
		})
	}
}
