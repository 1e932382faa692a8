package querylog

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/seqstore"
	"repro/internal/series"
)

// Loading real datasets: the library is not tied to the synthetic
// generator — any query log exported as CSV (one row per query term:
// name,v0,v1,...) or as a seqstore binary file plus a ".names" sidecar
// (the formats cmd/genlog writes) loads into []*series.Series.

// LoadCSV parses series from r. Each line is `name,v0,v1,...`; every row
// must have the same number of values. start is the calendar date of the
// first observation.
func LoadCSV(r io.Reader, start time.Time) ([]*series.Series, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24) // rows can be long (1024+ values)
	var out []*series.Series
	want := -1
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		fields := strings.Split(text, ",")
		if len(fields) < 2 {
			return nil, fmt.Errorf("querylog: line %d: need name plus at least one value", line)
		}
		name := strings.TrimSpace(fields[0])
		values := make([]float64, 0, len(fields)-1)
		for i, f := range fields[1:] {
			v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
			if err != nil {
				return nil, fmt.Errorf("querylog: line %d value %d: %w", line, i, err)
			}
			values = append(values, v)
		}
		if want == -1 {
			want = len(values)
		} else if len(values) != want {
			return nil, fmt.Errorf("querylog: line %d has %d values, want %d", line, len(values), want)
		}
		out = append(out, &series.Series{
			ID:     len(out),
			Name:   name,
			Start:  start,
			Values: values,
		})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("querylog: read csv: %w", err)
	}
	if len(out) == 0 {
		return nil, errors.New("querylog: empty csv")
	}
	return out, nil
}

// LoadCSVFile is LoadCSV over a file path.
func LoadCSVFile(path string, start time.Time) ([]*series.Series, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return LoadCSV(f, start)
}

// LoadBinary reads a seqstore binary file written by cmd/genlog into memory,
// with the term names OpenBinary gives its rows.
func LoadBinary(path string, start time.Time) ([]*series.Series, error) {
	st, names, err := OpenBinary(path)
	if err != nil {
		return nil, err
	}
	defer st.Close()
	out := make([]*series.Series, 0, st.Len())
	for id, name := range names {
		values, err := st.Get(id)
		if err != nil {
			return nil, err
		}
		out = append(out, &series.Series{ID: id, Name: name, Start: start, Values: values})
	}
	return out, nil
}

// OpenBinary opens a seqstore binary file written by cmd/genlog read-only
// and returns it with one term name per row, taken from the "<path>.names"
// sidecar (one name per line); a row beyond the list, or with an empty line,
// gets the synthetic name series-%05d. The caller closes the store.
func OpenBinary(path string) (*seqstore.Disk, []string, error) {
	st, err := seqstore.Open(path)
	if err != nil {
		return nil, nil, err
	}
	if st.Len() == 0 {
		st.Close()
		return nil, nil, errors.New("querylog: empty binary store")
	}
	names := make([]string, 0, st.Len())
	if nf, err := os.Open(path + ".names"); err == nil {
		sc := bufio.NewScanner(nf)
		for len(names) < st.Len() && sc.Scan() {
			names = append(names, strings.TrimSpace(sc.Text()))
		}
		nf.Close()
		if err := sc.Err(); err != nil {
			st.Close()
			return nil, nil, fmt.Errorf("querylog: read names: %w", err)
		}
	}
	for id := range names {
		if names[id] == "" {
			names[id] = fmt.Sprintf("series-%05d", id)
		}
	}
	for id := len(names); id < st.Len(); id++ {
		names = append(names, fmt.Sprintf("series-%05d", id))
	}
	return st, names, nil
}
