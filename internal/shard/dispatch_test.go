package shard

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/querylog"
)

// The bypass regression (the fix this file pins): a sharding config must
// never be served by a single engine. core.NewEngine rejects Shards > 1
// outright, so no construction path yields a mis-scoped engine, and
// NewFromConfig is the one switch that picks the engine a config asks for.

func TestNewEngineRejectsShardConfig(t *testing.T) {
	gen := querylog.NewGenerator(querylog.DefaultStart, 64, 7)
	data := gen.Dataset(6)
	for _, n := range []int{2, 8} {
		_, err := core.NewEngine(data, core.Config{Budget: 8, Shards: n})
		if err == nil || !strings.Contains(err.Error(), "shard") {
			t.Fatalf("NewEngine(Shards=%d) err = %v, want a sharding rejection", n, err)
		}
	}
}

func TestNewFromConfigDispatch(t *testing.T) {
	gen := querylog.NewGenerator(querylog.DefaultStart, 64, 7)
	data := gen.Dataset(6)
	for _, n := range []int{0, 1} {
		s, err := NewFromConfig(data, core.Config{Budget: 8, Shards: n})
		if err != nil {
			t.Fatalf("NewFromConfig(Shards=%d): %v", n, err)
		}
		if _, ok := s.(*core.Engine); !ok {
			t.Fatalf("NewFromConfig(Shards=%d) = %T, want *core.Engine", n, s)
		}
		s.Close()
	}
	s, err := NewFromConfig(data, core.Config{Budget: 8, Shards: 3})
	if err != nil {
		t.Fatalf("NewFromConfig(Shards=3): %v", err)
	}
	defer s.Close()
	se, ok := s.(*ShardedEngine)
	if !ok {
		t.Fatalf("NewFromConfig(Shards=3) = %T, want *ShardedEngine", s)
	}
	if got := se.Shards(); got != 3 {
		t.Fatalf("Shards() = %d, want 3", got)
	}
	// A sharded engine takes no inserts, so it refuses an insertable index.
	if s, err := NewFromConfig(data, core.Config{Budget: 8, Shards: 3, DynamicIndex: true}); err == nil {
		s.Close()
		t.Fatal("NewFromConfig(Shards=3, DynamicIndex) succeeded")
	}
}
