package shard

import (
	"testing"

	"repro/internal/leakcheck"
)

// TestMain fails the package when its tests leave a goroutine behind.
func TestMain(m *testing.M) { leakcheck.Main(m) }
