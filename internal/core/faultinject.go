package core

import (
	"fmt"

	"repro/internal/spectral"
)

// Fault-injection hooks. Add's rollback path (store append succeeded, tree
// insert failed, store truncated back) is unreachable through the public
// write API under normal operation, so crash-consistency tests plant the
// failure deliberately: occupy the next sequence ID in the index, watch Add
// fail with vptree.ErrDuplicateID and roll back, then clear the plant.
// core's own flat_stress_test.go drives the same sabotage with package
// access; these exported hooks exist so the sharding stress suite
// (internal/shard) can force a per-shard rollback from outside the package.
// They are not part of the serving API and hold the engine write lock for
// the whole mutation, exactly like Add.

// PlantDuplicateTreeID inserts a decoy index entry under the sequence ID
// the next Add will claim, forcing that Add to exercise its rollback path.
// It returns the planted ID for RemovePlantedTreeID. Requires DynamicIndex
// (the plant is a tree insert) and at least one stored series (the decoy
// reuses sequence 0's spectrum).
func (e *Engine) PlantDuplicateTreeID() (int, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	z, err := e.store.Get(0)
	if err != nil {
		return 0, err
	}
	h, err := spectral.FromValues(z)
	if err != nil {
		return 0, err
	}
	id := e.store.Len()
	if err := e.tree.Insert(h, id); err != nil {
		return 0, err
	}
	// The insert may have reallocated the feature table.
	e.features = e.tree.Features()
	return id, nil
}

// RemovePlantedTreeID deletes a decoy entry planted by PlantDuplicateTreeID,
// restoring the index/store invariant so subsequent Adds succeed.
func (e *Engine) RemovePlantedTreeID(id int) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	ok, err := e.tree.Delete(id)
	if err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("core: planted id %d not in index", id)
	}
	e.features = e.tree.Features()
	return nil
}
