package vptree

import (
	"slices"

	"repro/internal/spectral"
)

// Insert's changes to the flat index, made where it stands, and the repack
// that lays it out afresh. Everything here writes what a search reads, and
// may reallocate it — legal only under the lock that keeps searches out (the
// engine's write lock); a search between two such changes sees a complete
// index.

// repackDen sets when the flat index is laid out afresh: once the slots out of
// walk order (appended by inserts) and the abandoned leaf ranges together
// exceed one in repackDen of the slots.
//
// The price of waiting is the arena's locality: a bound costs 131 ns on slots
// met in order and 211 ns on slots met at random (BenchmarkBoundsWalkOrder,
// internal/spectral), so with one slot in eight out of order a search's bounds
// average at most 131 + 80/8 = 141 ns. The price of not waiting is the
// layout, ≈ 0.25 µs a slot (1.15 ms at 4 600): run once per n/8 inserts it
// adds 2 µs to an insert that costs ≈ 100. One in eight also bounds the space
// that abandoned ranges hold to, at 2×LeafSize entries a range, about the
// size of leafIDs/leafSlots again.
const repackDen = 8

// repackIfStale runs after every Insert. Its layout cannot fail — every
// feature has been through the arena once — and if it did, the index in
// place, whole if out of order, would stay.
func (t *Tree) repackIfStale() {
	if f := t.flat; (f.outOfOrder()+f.abandoned)*repackDen > len(f.slotRef) {
		if packed, err := layout(f.walk(), t.features); err == nil {
			t.flat = packed
			t.repacks++
		}
	}
}

// outOfOrder counts the slots a search does not meet in walk order: those
// appended since the index was laid out.
func (f *flatIndex) outOfOrder() int { return len(f.slotRef) - f.packed }

// appendSlot gives the feature c, about to become features[ref], the next
// slot: a row in slotRef and its rows in the arena. An arena that refuses c
// (another method, length or basis) leaves the index as it was.
func (f *flatIndex) appendSlot(ref int, c *spectral.Compressed) (int32, error) {
	if _, err := f.arena.Append(c); err != nil {
		return 0, err
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

// splice replaces leaf ni by the subtree whose walk rebuildLeaf made of its
// entries and the new one, whose slot appendSlot has just added. The walk's
// root takes index ni, so the parent's link stays good; the rest of it is
// appended. Every entry keeps its slot — a split moves no feature — and the
// nodes on path, ni's ancestors, gain the leaf blocks the split added.
func (f *flatIndex) splice(ni int32, sub []step, path []int32) {
	f.abandoned++
	f.place(ni, sub, true)
	if added := f.nodes[ni].leafBlocks - 1; added != 0 {
		for _, p := range path {
			f.nodes[p].leafBlocks += added
		}
	}
}
