package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// benchmarkFile is BENCHMARK.json: the contract the driver reads.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []boundedMetric `json:"end_to_end"`
	PerLayer []boundedMetric `json:"per_layer"`
}

type boundedMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func readBenchmarkFile(root string) (*benchmarkFile, error) {
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var b benchmarkFile
	if err := json.Unmarshal(raw, &b); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &b, nil
}

// exactCounts are the counter-derived per-request counts: two runs of one
// seed on one program must report them identically.
var exactCounts = map[string]bool{
	"vptree.nodes_per_q": true, "vptree.bounds_per_q": true, "vptree.candidates_per_q": true,
	"vptree.full_retrievals_per_q": true, "vptree.kernel_evals_per_q": true,
	"seqstore.reads_per_q": true, "seqstore.read_bytes_per_q": true,
	"burstdb.rows_scanned_per_q": true, "btree.probes_per_q": true,
}

// readRecords loads a file of run records, one JSON object per line (what
// `bench -out FILE` appends).
func readRecords(path string) ([]result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []result
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<16), 1<<24)
	for sc.Scan() {
		if strings.TrimSpace(sc.Text()) == "" {
			continue
		}
		var r result
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// rowKey identifies one row of the comparison.
type rowKey struct {
	workload, metric string
}

// collect groups values by (workload, metric), and by seed for the exact
// counts.
func collect(recs []result) (map[rowKey][]float64, map[rowKey]map[int64]float64) {
	vals := map[rowKey][]float64{}
	bySeed := map[rowKey]map[int64]float64{}
	for _, r := range recs {
		for name, m := range r.Metrics {
			k := rowKey{r.Workload, name}
			vals[k] = append(vals[k], m.Value)
			if exactCounts[name] {
				if bySeed[k] == nil {
					bySeed[k] = map[int64]float64{}
				}
				bySeed[k][r.Seed] = m.Value
			}
		}
	}
	return vals, bySeed
}

// verdictOf labels one bounded row: "unresolved" when either side's own
// quartile spread exceeds the bound (the data cannot show a change that
// small), "worse" when B's median is worse than A's by more than the bound,
// else "same".
func verdictOf(m boundedMetric, medA, spreadA, medB, spreadB float64) string {
	if spreadA > m.Bound || spreadB > m.Bound {
		return "unresolved"
	}
	worse := medB > medA*(1+m.Bound)
	if m.Better == "higher" {
		worse = medB < medA*(1-m.Bound)
	}
	if worse {
		return "worse"
	}
	return "same"
}

// runCompare implements `bench compare A B`.
func runCompare(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	rootFlag := fs.String("root", "", "repository checkout holding BENCHMARK.json")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		return errors.New("usage: bench compare [-root DIR] A.jsonl B.jsonl")
	}
	root, err := findRoot(*rootFlag)
	if err != nil {
		return err
	}
	bf, err := readBenchmarkFile(root)
	if err != nil {
		return err
	}
	a, err := readRecords(fs.Arg(0))
	if err != nil {
		return err
	}
	b, err := readRecords(fs.Arg(1))
	if err != nil {
		return err
	}
	bad, err := compare(bf, a, b, w)
	if err != nil {
		return err
	}
	if bad > 0 {
		return fmt.Errorf("%d row(s) worse or differing", bad)
	}
	return nil
}

// compare prints one row per (workload, metric) present in both sets and
// returns how many rows are "worse" or differ where they must be identical.
func compare(bf *benchmarkFile, a, b []result, w io.Writer) (int, error) {
	bounded := map[string]boundedMetric{}
	for _, m := range bf.EndToEnd {
		bounded[m.Name] = m
	}
	valsA, seedA := collect(a)
	valsB, seedB := collect(b)
	var keys []rowKey
	for k := range valsA {
		if _, ok := valsB[k]; ok {
			keys = append(keys, k)
		}
	}
	if len(keys) == 0 {
		return 0, errors.New("the two files share no (workload, metric) row")
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].workload != keys[j].workload {
			return keys[i].workload < keys[j].workload
		}
		_, bi := bounded[keys[i].metric]
		_, bj := bounded[keys[j].metric]
		if bi != bj {
			return bi
		}
		return keys[i].metric < keys[j].metric
	})
	bad := 0
	fmt.Fprintf(w, "%-12s %-34s %14s %8s %14s %8s %8s  %s\n", "workload", "metric", "median A", "spread", "median B", "spread", "bound", "verdict")
	for _, k := range keys {
		medA, spA := quartileSpread(valsA[k])
		medB, spB := quartileSpread(valsB[k])
		bound, label := "", ""
		switch m, ok := bounded[k.metric]; {
		case ok:
			bound = fmt.Sprintf("%.0f%%", 100*m.Bound)
			label = verdictOf(m, medA, spA, medB, spB)
			if label == "worse" {
				bad++
			}
		case exactCounts[k.metric]:
			label = "exact"
			for seed, va := range seedA[k] {
				if vb, ok := seedB[k][seed]; ok && va != vb {
					label = fmt.Sprintf("DIFFERS (seed %d: %v vs %v)", seed, va, vb)
				}
			}
			if label != "exact" {
				bad++
			}
		}
		fmt.Fprintf(w, "%-12s %-34s %14.6g %7.1f%% %14.6g %7.1f%% %8s  %s\n",
			k.workload, k.metric, medA, 100*spA, medB, 100*spB, bound, label)
	}
	return bad, nil
}
