package vptree

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"

	"repro/internal/spectral"
)

// Persistence: a built tree (structure + compressed features) can be saved
// to a single file and reopened later without re-reading, re-transforming
// or re-compressing the raw sequences — construction cost is paid once, as
// the paper's S2 tool does by storing "the compressed features locally".
// Loaded trees are static (no retained spectra); rebuild in Dynamic mode if
// updates are needed.
//
// File layout (little endian):
//
//	magic "SQVP", version u32
//	method u8, budget u32, leafSize u32, seqLen u32, n u32
//	featureCount u32, then per feature: recLen u32 + encodeFeature record
//	node section, preorder:
//	  tag u8 (1 = leaf, 2 = internal)
//	  leaf:     count u32, then count × { id u32, ref u32 }
//	  internal: id u32, ref u32, reserved u8 (0), median f64, left, right
//
// The node section is the tree's walk (see step), one record a step. n is
// the number of objects it names: every leaf entry and every internal node's
// vantage point. Load refuses what no Save writes: a method, budget or leaf
// size of 0, a feature whose method or length is not the header's, a feature
// count other than n, a ref out of range or named twice, a sequence ID named
// twice, a reserved byte other than 0, or an n the node section does not
// match. A file it accepts
// therefore saves back byte for byte.

const (
	persistMagic   = uint32(0x53515650) // "SQVP"
	persistVersion = uint32(1)
	tagLeaf        = byte(1)
	tagInternal    = byte(2)
)

// ErrCorrupt is returned when a tree file fails validation.
var ErrCorrupt = errors.New("vptree: corrupt tree file")

// Save writes the tree and its feature table to path.
func (t *Tree) Save(path string) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("vptree: save: %w", err)
	}
	defer func() {
		if cerr := f.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}()
	w := bufio.NewWriter(f)
	var buf [8]byte
	u32 := func(v int) { w.Write(binary.LittleEndian.AppendUint32(buf[:0], uint32(v))) }

	u32(int(persistMagic))
	u32(int(persistVersion))
	w.WriteByte(byte(t.opts.Method))
	u32(t.opts.Budget)
	u32(t.opts.LeafSize)
	u32(t.seqLen)
	u32(t.Len())
	u32(len(t.features))
	for _, c := range t.features {
		rec := encodeFeature(c)
		u32(len(rec))
		w.Write(rec)
	}
	walk := t.flat.walk()
	for len(walk) > 0 {
		s := walk[0]
		walk = walk[1:]
		if s.leaf < 0 {
			w.WriteByte(tagInternal)
			u32(s.id)
			u32(s.ref)
			w.WriteByte(0)
			w.Write(binary.LittleEndian.AppendUint64(buf[:0], math.Float64bits(s.median)))
			continue
		}
		w.WriteByte(tagLeaf)
		u32(s.leaf)
		for _, e := range walk[:s.leaf] {
			u32(e.id)
			u32(e.ref)
		}
		walk = walk[s.leaf:]
	}
	return w.Flush()
}

// decoder reads a tree file's little-endian fields. After the first short
// read every field reads as 0 and bad is set.
type decoder struct {
	r   *bufio.Reader
	buf [8]byte
	bad bool
}

func (d *decoder) read(n int) []byte {
	if !d.bad {
		if _, err := io.ReadFull(d.r, d.buf[:n]); err != nil {
			d.bad = true
		}
	}
	if d.bad {
		clear(d.buf[:n])
	}
	return d.buf[:n]
}

func (d *decoder) u8() byte    { return d.read(1)[0] }
func (d *decoder) u32() uint32 { return binary.LittleEndian.Uint32(d.read(4)) }

// Load reopens a tree saved with Save. The result answers queries (static
// mode) against the same seqstore IDs it was built with.
func Load(path string) (*Tree, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("vptree: load: %w", err)
	}
	defer f.Close()
	d := &decoder{r: bufio.NewReader(f)}

	if d.u32() != persistMagic || d.u32() != persistVersion {
		return nil, ErrCorrupt
	}
	method := spectral.Method(d.u8())
	budget, leafSize, seqLen, n, featCount := d.u32(), d.u32(), d.u32(), d.u32(), d.u32()
	if d.bad || method == 0 || budget == 0 || leafSize == 0 || featCount != n || featCount > 1<<28 {
		return nil, ErrCorrupt
	}
	t := &Tree{
		seqLen: int(seqLen),
		opts:   Options{Method: method, Budget: int(budget), LeafSize: int(leafSize)},
	}
	// Counts come from the file: a corrupt one must not size an allocation.
	t.features = make(MemoryFeatures, 0, min(featCount, 1<<20))
	for i := uint32(0); i < featCount; i++ {
		recLen := d.u32()
		if d.bad || recLen > 1<<24 {
			return nil, ErrCorrupt
		}
		rec := make([]byte, recLen)
		if _, err := io.ReadFull(d.r, rec); err != nil {
			return nil, ErrCorrupt
		}
		c, err := decodeFeature(rec)
		if err != nil {
			return nil, fmt.Errorf("vptree: load feature %d: %w", i, err)
		}
		if c.Method != method || c.N != t.seqLen {
			return nil, ErrCorrupt
		}
		t.features = append(t.features, c)
	}
	named := make(map[int]struct{}, len(t.features))
	walk, err := readWalk(d, nil, len(t.features), named)
	if err != nil {
		return nil, err
	}
	// The stream must be fully consumed.
	if _, err := d.r.ReadByte(); err != io.EOF || len(named) != t.Len() {
		return nil, ErrCorrupt
	}
	// The arena refuses a ref named twice and a method it does not know.
	if t.flat, err = layout(walk, t.features); err != nil {
		return nil, ErrCorrupt
	}
	return t, nil
}

// readWalk appends the subtree the node section continues with to walk, and
// the IDs of the objects it names to named; it refuses an ID named twice.
func readWalk(d *decoder, walk []step, featCount int, named map[int]struct{}) ([]step, error) {
	name := func(id uint32) bool {
		_, dup := named[int(id)]
		named[int(id)] = struct{}{}
		return !dup
	}
	switch d.u8() {
	case tagLeaf:
		count := d.u32()
		if d.bad || count > 1<<24 {
			return nil, ErrCorrupt
		}
		walk = append(walk, step{leaf: int(count)})
		for range count {
			id, ref := d.u32(), d.u32()
			if d.bad || int(ref) >= featCount || !name(id) {
				return nil, ErrCorrupt
			}
			walk = append(walk, step{id: int(id), ref: int(ref)})
		}
		return walk, nil
	case tagInternal:
		id, ref, zero := d.u32(), d.u32(), d.u8()
		median := math.Float64frombits(binary.LittleEndian.Uint64(d.read(8)))
		if d.bad || int(ref) >= featCount || zero != 0 || !name(id) {
			return nil, ErrCorrupt
		}
		walk = append(walk, step{id: int(id), ref: int(ref), median: median, leaf: -1})
		walk, err := readWalk(d, walk, featCount, named)
		if err != nil {
			return nil, err
		}
		return readWalk(d, walk, featCount, named)
	default:
		return nil, ErrCorrupt
	}
}
