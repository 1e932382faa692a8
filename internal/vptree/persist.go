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
// n is the number of objects the node section names: every leaf entry and
// every internal node's vantage point. Load refuses what no Save writes: a
// reserved byte other than 0, or an n the node section does not match.

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

	writeU32 := func(v uint32) { binary.Write(w, binary.LittleEndian, v) }
	writeU32(persistMagic)
	writeU32(persistVersion)
	w.WriteByte(byte(t.opts.Method))
	writeU32(uint32(t.opts.Budget))
	writeU32(uint32(t.opts.LeafSize))
	writeU32(uint32(t.seqLen))
	writeU32(uint32(t.n))

	writeU32(uint32(len(t.features)))
	for _, c := range t.features {
		rec := encodeFeature(c)
		writeU32(uint32(len(rec)))
		w.Write(rec)
	}
	if err := writeNode(w, t.root); err != nil {
		return err
	}
	return w.Flush()
}

func writeNode(w *bufio.Writer, nd *node) error {
	if nd == nil {
		return errors.New("vptree: nil node during save")
	}
	if nd.leaf != nil {
		w.WriteByte(tagLeaf)
		binary.Write(w, binary.LittleEndian, uint32(len(nd.leaf)))
		for _, e := range nd.leaf {
			binary.Write(w, binary.LittleEndian, uint32(e.id))
			binary.Write(w, binary.LittleEndian, uint32(e.ref))
		}
		return nil
	}
	w.WriteByte(tagInternal)
	binary.Write(w, binary.LittleEndian, uint32(nd.vpID))
	binary.Write(w, binary.LittleEndian, uint32(nd.vpRef))
	w.WriteByte(0)
	binary.Write(w, binary.LittleEndian, math.Float64bits(nd.median))
	if err := writeNode(w, nd.left); err != nil {
		return err
	}
	return writeNode(w, nd.right)
}

// Load reopens a tree saved with Save. The result answers queries (static
// mode) against the same seqstore IDs it was built with.
func Load(path string) (*Tree, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("vptree: load: %w", err)
	}
	defer f.Close()
	r := bufio.NewReader(f)

	var magic, version uint32
	if err := binary.Read(r, binary.LittleEndian, &magic); err != nil {
		return nil, ErrCorrupt
	}
	if magic != persistMagic {
		return nil, ErrCorrupt
	}
	if err := binary.Read(r, binary.LittleEndian, &version); err != nil || version != persistVersion {
		return nil, ErrCorrupt
	}
	method, err := r.ReadByte()
	if err != nil {
		return nil, ErrCorrupt
	}
	var budget, leafSize, seqLen, n uint32
	for _, p := range []*uint32{&budget, &leafSize, &seqLen, &n} {
		if err := binary.Read(r, binary.LittleEndian, p); err != nil {
			return nil, ErrCorrupt
		}
	}
	t := &Tree{
		n:      int(n),
		seqLen: int(seqLen),
		opts: Options{
			Method:   spectral.Method(method),
			Budget:   int(budget),
			LeafSize: int(leafSize),
		},
	}
	t.opts.fill()

	var featCount uint32
	if err := binary.Read(r, binary.LittleEndian, &featCount); err != nil {
		return nil, ErrCorrupt
	}
	if featCount > 1<<28 {
		return nil, ErrCorrupt
	}
	// Counts come from the file: a corrupt one must not size an allocation.
	t.features = make(MemoryFeatures, 0, min(featCount, 1<<20))
	for i := uint32(0); i < featCount; i++ {
		var recLen uint32
		if err := binary.Read(r, binary.LittleEndian, &recLen); err != nil {
			return nil, ErrCorrupt
		}
		if recLen > 1<<24 {
			return nil, ErrCorrupt
		}
		rec := make([]byte, recLen)
		if _, err := io.ReadFull(r, rec); err != nil {
			return nil, ErrCorrupt
		}
		c, err := decodeFeature(rec)
		if err != nil {
			return nil, fmt.Errorf("vptree: load feature %d: %w", i, err)
		}
		t.features = append(t.features, c)
	}
	named := 0
	if t.root, err = readNode(r, len(t.features), &named); err != nil {
		return nil, err
	}
	if named != t.n {
		return nil, ErrCorrupt
	}
	// The stream must be fully consumed.
	if _, err := r.ReadByte(); err != io.EOF {
		return nil, ErrCorrupt
	}
	t.rebuildFlat()
	return t, nil
}

// readNode reads one subtree and adds the objects it names to *named.
func readNode(r *bufio.Reader, featCount int, named *int) (*node, error) {
	tag, err := r.ReadByte()
	if err != nil {
		return nil, ErrCorrupt
	}
	switch tag {
	case tagLeaf:
		var count uint32
		if err := binary.Read(r, binary.LittleEndian, &count); err != nil {
			return nil, ErrCorrupt
		}
		if count > 1<<24 {
			return nil, ErrCorrupt
		}
		nd := &node{leaf: make([]entry, 0, min(count, 1<<10))}
		for i := uint32(0); i < count; i++ {
			var id, ref uint32
			if err := binary.Read(r, binary.LittleEndian, &id); err != nil {
				return nil, ErrCorrupt
			}
			if err := binary.Read(r, binary.LittleEndian, &ref); err != nil {
				return nil, ErrCorrupt
			}
			if int(ref) >= featCount {
				return nil, ErrCorrupt
			}
			nd.leaf = append(nd.leaf, entry{id: int(id), ref: int(ref)})
		}
		*named += len(nd.leaf)
		return nd, nil
	case tagInternal:
		var id, ref uint32
		if err := binary.Read(r, binary.LittleEndian, &id); err != nil {
			return nil, ErrCorrupt
		}
		if err := binary.Read(r, binary.LittleEndian, &ref); err != nil {
			return nil, ErrCorrupt
		}
		if int(ref) >= featCount {
			return nil, ErrCorrupt
		}
		if zero, err := r.ReadByte(); err != nil || zero != 0 {
			return nil, ErrCorrupt
		}
		var medBits uint64
		if err := binary.Read(r, binary.LittleEndian, &medBits); err != nil {
			return nil, ErrCorrupt
		}
		nd := &node{
			vpID:   int(id),
			vpRef:  int(ref),
			median: math.Float64frombits(medBits),
		}
		*named++
		if nd.left, err = readNode(r, featCount, named); err != nil {
			return nil, err
		}
		if nd.right, err = readNode(r, featCount, named); err != nil {
			return nil, err
		}
		return nd, nil
	default:
		return nil, ErrCorrupt
	}
}
