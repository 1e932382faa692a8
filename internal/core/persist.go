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
	"repro/internal/vptree"
)

// Engine persistence: Save writes everything a fresh process needs to
// answer queries — the raw and standardized sequences, term names, the
// built VP-tree with its compressed features, and both burst databases —
// so LoadEngine skips standardization, FFTs, compression, tree construction
// and burst extraction entirely. This is the S2 tool's deployment model:
// build once, then start instantly from the stored features.
//
// Directory layout:
//
//	meta.txt         version + start date + series length
//	names.txt        one query term per line (sequence-ID order)
//	raw.bin          original values        (seqstore format; read on demand)
//	z.bin            standardized values    (seqstore format)
//	tree.bin         VP-tree + features     (vptree format)
//	burst_short.bin  7-day burst features   (burstdb format)
//	burst_long.bin   30-day burst features  (burstdb format)

const engineMetaVersion = 1

// Save writes the engine state into dir (created if missing). It holds the
// read lock throughout, so the directory is one consistent snapshot even
// beside a concurrent Add (which waits for it).
func (e *Engine) Save(dir string) error {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}

	// meta + names.
	start := time.Time{}
	if e.src.Len() > 0 {
		first, err := e.src.Series(0)
		if err != nil {
			return err
		}
		start = first.Start
	}
	meta := fmt.Sprintf("version %d\nstart %s\nseqlen %d\ncount %d\n",
		engineMetaVersion, start.Format(time.RFC3339), e.SeqLen(), e.Len())
	if err := os.WriteFile(filepath.Join(dir, "meta.txt"), []byte(meta), 0o644); err != nil {
		return err
	}
	var names strings.Builder
	for _, n := range e.names {
		names.WriteString(n)
		names.WriteByte('\n')
	}
	if err := os.WriteFile(filepath.Join(dir, "names.txt"), []byte(names.String()), 0o644); err != nil {
		return err
	}

	// Raw and standardized sequences.
	raw, err := seqstore.Create(filepath.Join(dir, "raw.bin"), e.SeqLen())
	if err != nil {
		return err
	}
	defer raw.Close()
	buf := make([]float64, e.SeqLen())
	for id := 0; id < e.src.Len(); id++ {
		values, err := e.src.Values(id, buf)
		if err != nil {
			return err
		}
		if _, err := raw.Append(values); err != nil {
			return err
		}
	}
	if err := raw.Sync(); err != nil {
		return err
	}
	z, err := seqstore.Create(filepath.Join(dir, "z.bin"), e.SeqLen())
	if err != nil {
		return err
	}
	defer z.Close()
	for id := 0; id < e.store.Len(); id++ {
		if err := e.store.GetInto(id, buf); err != nil {
			return err
		}
		if _, err := z.Append(buf); err != nil {
			return err
		}
	}
	if err := z.Sync(); err != nil {
		return err
	}

	// Index and burst databases.
	if err := e.tree.Save(filepath.Join(dir, "tree.bin")); err != nil {
		return err
	}
	if err := e.burstsS.Save(filepath.Join(dir, "burst_short.bin")); err != nil {
		return err
	}
	return e.burstsL.Save(filepath.Join(dir, "burst_long.bin"))
}

// LoadEngine reopens an engine saved with Save. The stored tree is used
// as-is, representation included, so cfg's Budget and Seed are ignored; of
// the rest only Workers and Obs apply. A saved directory is one static
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
	var version, seqLen, count int
	var startStr string
	for _, line := range strings.Split(string(metaBytes), "\n") {
		var s string
		switch {
		case strings.HasPrefix(line, "version "):
			fmt.Sscanf(line, "version %d", &version)
		case strings.HasPrefix(line, "start "):
			s = strings.TrimPrefix(line, "start ")
			startStr = strings.TrimSpace(s)
		case strings.HasPrefix(line, "seqlen "):
			fmt.Sscanf(line, "seqlen %d", &seqLen)
		case strings.HasPrefix(line, "count "):
			fmt.Sscanf(line, "count %d", &count)
		}
	}
	if version != engineMetaVersion {
		return nil, fmt.Errorf("core: unsupported engine version %d", version)
	}
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
	if e.tree, err = vptree.Load(filepath.Join(dir, "tree.bin")); err != nil {
		return nil, err
	}
	if e.tree.Len() != count {
		return nil, fmt.Errorf("core: tree.bin indexes %d series, meta says %d: %w", e.tree.Len(), count, vptree.ErrCorrupt)
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
