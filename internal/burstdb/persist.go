package burstdb

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
)

// Persistence: the burst-feature table dumps to a compact binary file and
// reloads with its B-tree indexes rebuilt — the paper's workflow of keeping
// the extracted features in a database across sessions. The dump is the
// heap table in row order, and loading it gives every row its old row ID.
//
// Rows are never removed: the paper's burst store (§6.3) inserts and
// range-queries. Removal is not provided; it would come back behind a served
// Engine.Delete, with its own route, a write-ahead log and the brute-force
// oracle every configuration answers to.
//
// File layout (little endian):
//
//	magic "SQBD", version u32, rowCount u32
//	rowCount × { seqID i64, start i64, end i64, avg f64 }

const (
	persistMagic   = uint32(0x53514244) // "SQBD"
	persistVersion = uint32(1)
)

// ErrCorrupt is returned when a dump file fails validation.
var ErrCorrupt = errors.New("burstdb: corrupt dump file")

// Save writes every row to path.
func (db *DB) Save(path string) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("burstdb: save: %w", err)
	}
	defer func() {
		if cerr := f.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}()
	w := bufio.NewWriter(f)
	binary.Write(w, binary.LittleEndian, persistMagic)
	binary.Write(w, binary.LittleEndian, persistVersion)
	binary.Write(w, binary.LittleEndian, uint32(len(db.rows)))
	for _, r := range db.rows {
		binary.Write(w, binary.LittleEndian, r.SeqID)
		binary.Write(w, binary.LittleEndian, r.Start)
		binary.Write(w, binary.LittleEndian, r.End)
		binary.Write(w, binary.LittleEndian, math.Float64bits(r.Avg))
	}
	return w.Flush()
}

// Load reads a dump written by Save into a fresh database (indexes rebuilt).
func Load(path string) (*DB, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("burstdb: load: %w", err)
	}
	defer f.Close()
	r := bufio.NewReader(f)

	var magic, version, count uint32
	if err := binary.Read(r, binary.LittleEndian, &magic); err != nil || magic != persistMagic {
		return nil, ErrCorrupt
	}
	if err := binary.Read(r, binary.LittleEndian, &version); err != nil || version != persistVersion {
		return nil, ErrCorrupt
	}
	if err := binary.Read(r, binary.LittleEndian, &count); err != nil || count > 1<<28 {
		return nil, ErrCorrupt
	}
	// count comes from the file: a corrupt one must not size an allocation.
	records := make([]Record, 0, min(count, 1<<20))
	for i := uint32(0); i < count; i++ {
		var rec Record
		var avgBits uint64
		if err := binary.Read(r, binary.LittleEndian, &rec.SeqID); err != nil {
			return nil, ErrCorrupt
		}
		if err := binary.Read(r, binary.LittleEndian, &rec.Start); err != nil {
			return nil, ErrCorrupt
		}
		if err := binary.Read(r, binary.LittleEndian, &rec.End); err != nil {
			return nil, ErrCorrupt
		}
		if err := binary.Read(r, binary.LittleEndian, &avgBits); err != nil {
			return nil, ErrCorrupt
		}
		rec.Avg = math.Float64frombits(avgBits)
		if rec.End < rec.Start {
			return nil, ErrCorrupt
		}
		records = append(records, rec)
	}
	if _, err := r.ReadByte(); err != io.EOF {
		return nil, ErrCorrupt
	}

	// The heap is the file's rows in order; the indexes are bulk-loaded.
	return FromRecords(records)
}
