package vptree

import (
	"slices"

	"repro/internal/spectral"
)

// The flat index's half of Insert: each change dynamic.go makes to the
// pointer tree, made to the flat index where it stands. Everything here
// writes what a search reads, and may reallocate it — legal only under the
// lock that keeps searches out (the engine's write lock); a search between two
// such changes sees a complete index.

// repackDen sets when the flat index is derived afresh: once the slots out of
// walk order (appended by inserts) and the abandoned leaf ranges together
// exceed one in repackDen of the slots.
//
// The price of waiting is the arena's locality: a bound costs 131 ns on slots
// met in order and 211 ns on slots met at random (BenchmarkBoundsWalkOrder,
// internal/spectral), so with one slot in eight out of order a search's bounds
// average at most 131 + 80/8 = 141 ns. The price of not waiting is the
// derivation, ≈ 0.25 µs a slot (1.15 ms at 4 600): run once per n/8 inserts it
// adds 2 µs to an insert that costs ≈ 100. One in eight also bounds the space
// that abandoned ranges hold to, at 2×LeafSize entries a range, about the
// size of leafIDs/leafSlots again.
const repackDen = 8

// repackIfStale runs after every Insert.
func (t *Tree) repackIfStale() {
	if f := t.flat; (f.outOfOrder()+f.abandoned)*repackDen > len(f.slotRef) {
		t.rebuildFlat()
		t.repacks++
	}
}

// outOfOrder counts the slots a search does not meet in walk order: those
// appended since the index was derived.
func (f *flatIndex) outOfOrder() int { return len(f.slotRef) - f.packed }

// appendSlot gives the feature c, about to become features[ref], the next
// slot: a row in slotRef and, when the tree has an arena, its rows there. An
// arena that refuses c (another method, length or basis) leaves the index as
// it was.
func (f *flatIndex) appendSlot(ref int, c *spectral.Compressed) (int32, error) {
	if f.arena != nil {
		if _, err := f.arena.Append(c); err != nil {
			return 0, err
		}
	}
	f.slotRef = append(f.slotRef, int32(ref))
	return int32(len(f.slotRef) - 1), nil
}

// appendLeaf adds an entry to leaf ni: at leafHi if the leaf's range has
// room, else after moving the range to the end of leafIDs/leafSlots with room
// for a leaf to fill before it splits (more for one that ties have grown past
// that, doubling).
func (f *flatIndex) appendLeaf(ni int32, id int, slot int32, room int) {
	fn := &f.nodes[ni]
	if fn.leafHi == fn.leafCap {
		m := int(fn.leafHi - fn.leafLo)
		for room <= m {
			room *= 2
		}
		lo := len(f.leafIDs)
		f.leafIDs = slices.Grow(append(f.leafIDs, f.leafIDs[fn.leafLo:fn.leafHi]...), room-m)[:lo+room]
		f.leafSlots = slices.Grow(append(f.leafSlots, f.leafSlots[fn.leafLo:fn.leafHi]...), room-m)[:lo+room]
		fn.leafLo, fn.leafHi, fn.leafCap = int32(lo), int32(lo+m), int32(lo+room)
		f.abandoned++
	}
	f.leafIDs[fn.leafHi], f.leafSlots[fn.leafHi] = id, slot
	fn.leafHi++
	if m := int(fn.leafHi - fn.leafLo); m > f.maxLeaf {
		f.maxLeaf = m
	}
}

// splice replaces leaf ni, the twin of old, by the subtree sub that
// rebuildLeaf made of old's entries and the new one, whose slot appendSlot
// has just added. sub's root takes index ni, so the parent's link stays good;
// the rest of it is appended. Every entry keeps its slot — a split moves no
// feature — and the nodes on path, ni's ancestors, gain the leaf blocks the
// split added.
func (f *flatIndex) splice(ni int32, old, sub *node, path []int32) {
	lo := int(f.nodes[ni].leafLo)
	slots := make(map[int]int32, len(old.leaf)+1)
	for i, e := range old.leaf {
		slots[e.ref] = f.leafSlots[lo+i]
	}
	last := int32(len(f.slotRef) - 1)
	slots[int(f.slotRef[last])] = last
	f.abandoned++
	f.place(ni, sub, slots)
	if added := f.nodes[ni].leafBlocks - 1; added != 0 {
		for _, p := range path {
			f.nodes[p].leafBlocks += added
		}
	}
}
