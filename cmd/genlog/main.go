// Command genlog materializes a synthetic MSN-style query-log dataset: one
// demand time series per query term (see package querylog for the shape
// classes). Output is CSV (name,day0,day1,...) or the binary seqstore
// format plus a sidecar name list.
//
// Usage:
//
//	genlog -n 1000 -days 1024 -seed 7 -format csv  -out dataset.csv
//	genlog -n 1000 -format binary -out dataset.bin      # + dataset.bin.names
//	genlog -exemplars -format csv -out exemplars.csv    # the paper's figures
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strconv"

	"repro/internal/obs"
	"repro/internal/querylog"
	"repro/internal/seqstore"
	"repro/internal/series"
)

func main() {
	n := flag.Int("n", 1000, "number of series to generate")
	days := flag.Int("days", querylog.DefaultLength, "days per series")
	seed := flag.Int64("seed", 1, "PRNG seed")
	format := flag.String("format", "csv", "output format: csv or binary")
	out := flag.String("out", "dataset.csv", "output path")
	exemplars := flag.Bool("exemplars", false, "emit the paper's named exemplar queries instead of a bulk dataset")
	debugAddr := flag.String("debug-addr", "", "serve /debug/{vars,metrics,traces,pprof} on this address while generating")
	flag.Parse()

	if *debugAddr != "" {
		// Large generations are CPU-bound; the pprof endpoints are the
		// useful part of the surface here.
		srv, addr, err := obs.Serve(*debugAddr, obs.NewHub())
		if err != nil {
			fmt.Fprintln(os.Stderr, "genlog:", err)
			os.Exit(1)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "debug server on http://%s/debug/pprof/\n", addr)
	}

	if err := run(*n, *days, *seed, *format, *out, *exemplars); err != nil {
		fmt.Fprintln(os.Stderr, "genlog:", err)
		os.Exit(1)
	}
}

func run(n, days int, seed int64, format, out string, exemplars bool) error {
	if days < 1 {
		return fmt.Errorf("-days %d: need at least 1", days)
	}
	if n < 0 {
		return fmt.Errorf("-n %d: need at least 0", n)
	}
	g := querylog.NewGenerator(querylog.DefaultStart, days, seed)
	var data []*series.Series
	if exemplars {
		data = g.Exemplars()
	} else {
		data = g.Dataset(n)
	}
	switch format {
	case "csv":
		return writeCSV(out, data)
	case "binary":
		return writeBinary(out, data, days)
	default:
		return fmt.Errorf("unknown format %q (want csv or binary)", format)
	}
}

func writeCSV(path string, data []*series.Series) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	for _, s := range data {
		if _, err := w.WriteString(s.Name); err != nil {
			return err
		}
		for _, v := range s.Values {
			if err := w.WriteByte(','); err != nil {
				return err
			}
			if _, err := w.WriteString(strconv.FormatFloat(v, 'g', -1, 64)); err != nil {
				return err
			}
		}
		if err := w.WriteByte('\n'); err != nil {
			return err
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}
	fmt.Printf("wrote %d series to %s\n", len(data), path)
	return nil
}

func writeBinary(path string, data []*series.Series, days int) error {
	st, err := seqstore.Create(path, days)
	if err != nil {
		return err
	}
	defer st.Close()
	names, err := os.Create(path + ".names")
	if err != nil {
		return err
	}
	defer names.Close()
	nw := bufio.NewWriter(names)
	for _, s := range data {
		if _, err := st.Append(s.Values); err != nil {
			return err
		}
		if _, err := fmt.Fprintln(nw, s.Name); err != nil {
			return err
		}
	}
	if err := nw.Flush(); err != nil {
		return err
	}
	if err := st.Sync(); err != nil {
		return err
	}
	fmt.Printf("wrote %d series to %s (+ %s.names)\n", len(data), path, path)
	return nil
}
