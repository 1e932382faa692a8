package core

import (
	"bufio"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/burstdb"
	"repro/internal/seqstore"
	"repro/internal/spectral"
	"repro/internal/vptree"
)

// Engine persistence: Save writes everything a fresh process needs to
// answer queries — the raw and standardized sequences, term names, the
// compressed features and both burst databases — so LoadEngine skips
// standardization, FFTs, compression and burst extraction entirely. This is
// the S2 tool's deployment model: build once, then start instantly from the
// stored features. (Deriving the features from z.bin at load instead cost
// 110–150 ms at 16 384 × 1 024 on two cores, reading them 4 ms.)
//
// Directory layout:
//
//	meta.txt         version + start date + series length + count + budget
//	names.txt        one query term per line (sequence-ID order)
//	raw.bin          original values        (seqstore format; read on demand)
//	z.bin            standardized values    (seqstore format)
//	features.bin     compressed features    (vptree.WriteFeatures format, ID order)
//	burst_short.bin  7-day burst features   (burstdb format)
//	burst_long.bin   30-day burst features  (burstdb format)
//
// Version 1 held the VP-tree (tree.bin) in place of features.bin.

const engineMetaVersion = 2

// Save writes the engine state into dir (created if missing). It holds the
// read lock throughout, so the directory is one consistent snapshot even
// beside a concurrent Add (which waits for it). Every file is written beside
// its target and renamed into place once all are written: saving into the
// directory the engine was loaded from, whose files it reads as it writes,
// leaves them readable (a rename replaces the name, not the open file), and a
// Save that fails before the renames leaves the directory's files as they were.
func (e *Engine) Save(dir string) (err error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	var names []string // the files written so far, each still as name.tmp
	defer func() {
		for _, name := range names {
			if err == nil {
				err = os.Rename(filepath.Join(dir, name+".tmp"), filepath.Join(dir, name))
			} else {
				os.Remove(filepath.Join(dir, name+".tmp")) //nolint:errcheck // the save's error is the one reported
			}
		}
	}()
	put := func(name string, write func(path string) error) {
		if err == nil {
			names = append(names, name)
			err = write(filepath.Join(dir, name+".tmp"))
		}
	}
	text := func(body string) func(string) error {
		return func(path string) error { return os.WriteFile(path, []byte(body), 0o644) }
	}
	rows := func(n int, row func(id int, buf []float64) ([]float64, error)) func(string) error {
		return func(path string) error {
			d, err := seqstore.Create(path, e.SeqLen())
			if err != nil {
				return err
			}
			defer d.Close()
			buf := make([]float64, e.SeqLen())
			for id := 0; id < n && err == nil; id++ {
				var values []float64
				if values, err = row(id, buf); err == nil {
					_, err = d.Append(values)
				}
			}
			return errors.Join(err, d.Sync())
		}
	}

	first, err := e.src.Series(0)
	if err != nil {
		return err
	}
	put("meta.txt", text(fmt.Sprintf("version %d\nstart %s\nseqlen %d\ncount %d\nbudget %d\n",
		engineMetaVersion, first.Start.Format(time.RFC3339), e.SeqLen(), e.Len(), e.cfg.Budget)))
	put("names.txt", text(strings.Join(e.names, "\n")+"\n"))
	put("raw.bin", rows(e.src.Len(), e.src.Values))
	put("z.bin", rows(e.store.Len(), func(id int, buf []float64) ([]float64, error) { return buf, e.store.GetInto(id, buf) }))
	put("features.bin", func(path string) error {
		feats := make([]*spectral.Compressed, e.arena.Len())
		for id := range feats {
			feats[id] = e.arena.Feature(id)
		}
		d, err := vptree.WriteFeatures(path, feats)
		if err != nil {
			return err
		}
		return d.Close()
	})
	put("burst_short.bin", e.burstsS.Save)
	put("burst_long.bin", e.burstsL.Save)
	return err
}

// LoadEngine reopens an engine saved with Save. The stored features are used
// as-is, and the budget they were compressed at replaces cfg's; of the rest
// only Workers and Obs apply. A saved directory is one static
// engine: a cfg asking for shards or a DynamicIndex is refused rather than
// silently served by something else. Both sequence files stay on disk, open
// read-only until Close: the standardized rows (random access per
// refinement, as in the paper's setup) and the original values, the engine's
// FileSource.
func LoadEngine(dir string, cfg Config) (_ *Engine, err error) {
	if cfg.Shards > 1 {
		return nil, fmt.Errorf("core: Config.Shards=%d: a saved engine loads as one unpartitioned engine", cfg.Shards)
	}
	if cfg.DynamicIndex {
		return nil, errors.New("core: Config.DynamicIndex: a saved engine loads with a static index")
	}
	cfg.fill()

	metaBytes, err := os.ReadFile(filepath.Join(dir, "meta.txt"))
	if err != nil {
		return nil, fmt.Errorf("core: load meta: %w", err)
	}
	var version, seqLen, count, budget int
	var startStr string
	// What Save writes, line for line; a field Sscanf cannot read stays zero
	// and is refused below, a version first.
	fmt.Sscanf(string(metaBytes), "version %d\nstart %s\nseqlen %d\ncount %d\nbudget %d\n", //nolint:errcheck // see above
		&version, &startStr, &seqLen, &count, &budget)
	if version != engineMetaVersion {
		return nil, fmt.Errorf("core: %s holds an engine of version %d, this build reads version %d (version 1 saved a VP-tree): build the engine anew and save it", dir, version, engineMetaVersion)
	}
	cfg.Budget = budget
	start, err := time.Parse(time.RFC3339, startStr)
	if err != nil {
		return nil, fmt.Errorf("core: bad start date %q: %w", startStr, err)
	}

	nameBytes, err := os.ReadFile(filepath.Join(dir, "names.txt"))
	if err != nil {
		return nil, err
	}
	var names []string
	sc := bufio.NewScanner(strings.NewReader(string(nameBytes)))
	for sc.Scan() {
		names = append(names, sc.Text())
	}
	if len(names) != count {
		return nil, fmt.Errorf("core: %d names for %d sequences", len(names), count)
	}

	raw, err := seqstore.Open(filepath.Join(dir, "raw.bin"))
	if err != nil {
		return nil, err
	}
	defer closeOnError(&err, raw)
	z, err := seqstore.Open(filepath.Join(dir, "z.bin"))
	if err != nil {
		return nil, err
	}
	defer closeOnError(&err, z)
	if raw.Len() != count || z.Len() != count || raw.SeqLen() != seqLen || z.SeqLen() != seqLen {
		return nil, errors.New("core: sequence stores do not match meta")
	}

	e := &Engine{
		cfg:    cfg,
		byName: make(map[string]int, count),
		src:    FileSource(raw, names, start),
		store:  z,
		names:  names,
	}
	e.size.Store(int64(count))
	for id, name := range names {
		if _, dup := e.byName[name]; !dup {
			e.byName[name] = id
		}
	}

	// Each file is checked against the meta as well as on its own: a file
	// from another save of another corpus can be valid and still not this
	// directory's.
	feats, err := vptree.ReadFeatures(filepath.Join(dir, "features.bin"))
	if err != nil {
		return nil, err
	}
	if len(feats) != count || count == 0 || feats[0].N != seqLen {
		return nil, fmt.Errorf("core: features.bin does not hold meta's %d features of length %d: %w", count, seqLen, vptree.ErrCorrupt)
	}
	if e.arena, err = spectral.NewArena(feats); err != nil {
		return nil, err
	}
	var tables [2]*burstdb.DB
	for i, name := range []string{"burst_short.bin", "burst_long.bin"} {
		if tables[i], err = loadBursts(filepath.Join(dir, name), count); err != nil {
			return nil, err
		}
	}
	e.wireObs(cfg.Obs)
	e.setBurstDBs(tables[0], tables[1])
	e.met.seriesIngested.Add(int64(count))
	// The disk store's pass over its file, which brings its sketch up to
	// date, is part of set-up and not of the first query.
	seqstore.NewReader(e.store).Sketch()
	return e, nil
}

// loadBursts loads one burst table and checks that every row belongs to one
// of the count sequences the directory holds.
func loadBursts(path string, count int) (*burstdb.DB, error) {
	db, err := burstdb.Load(path)
	if err != nil {
		return nil, err
	}
	db.ScanAll(func(rid int64, r burstdb.Record) bool {
		if r.SeqID < 0 || r.SeqID >= int64(count) {
			err = fmt.Errorf("core: %s row %d is sequence %d of %d: %w", filepath.Base(path), rid, r.SeqID, count, burstdb.ErrCorrupt)
		}
		return err == nil
	})
	if err != nil {
		return nil, err
	}
	return db, nil
}
