package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"text/tabwriter"
)

// printTable writes the records as one aligned table per workload.
func printTable(w io.Writer, recs []record) {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', tabwriter.AlignRight)
	last := ""
	for _, r := range recs {
		if r.Workload != last {
			if last != "" {
				fmt.Fprintln(tw)
			}
			fmt.Fprintf(tw, "%s\tmedian\tunit\tq1\tq3\tn\tbound\t\n", r.Workload)
			last = r.Workload
		}
		bound := "-"
		if r.Bound != nil {
			bound = fmt.Sprintf("%.0f%%", 100**r.Bound)
		} else if r.Exact {
			bound = "exact"
		}
		fmt.Fprintf(tw, "%s\t%.6g\t%s\t%.6g\t%.6g\t%d\t%s\t\n", r.Metric, r.Value, r.Unit, r.Q1, r.Q3, r.N, bound)
	}
	tw.Flush()
}

// writeRecords stores the manifest line and one line per record.
func writeRecords(path string, m manifest, recs []record) error {
	return writeJSONL(path, func(enc *json.Encoder) error {
		if err := enc.Encode(m); err != nil {
			return err
		}
		for _, r := range recs {
			if err := enc.Encode(r); err != nil {
				return err
			}
		}
		return nil
	})
}

// writeJSONL creates path and writes the values encode emits, one per
// line.
func writeJSONL(path string, encode func(*json.Encoder) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	err = encode(json.NewEncoder(w))
	if err == nil {
		err = w.Flush()
	}
	if err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}

// readRecords loads a -json file, skipping its manifest line.
func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	dec := json.NewDecoder(f)
	for {
		var r record
		if err := dec.Decode(&r); err == io.EOF {
			return out, nil
		} else if err != nil {
			return nil, fmt.Errorf("read %s: %w", path, err)
		}
		if r.Metric != "" { // not the manifest
			out = append(out, r)
		}
	}
}

// verdict classifies B against A for one metric. An end-to-end metric
// is "worse" when B's median is worse than A's by more than the bound,
// and "ok" otherwise; a host-time metric is "unresolved" instead when
// either side's interquartile spread is wider than the bound, unless
// every B sample beats every A sample. An exact metric is "same" or
// "changed". Other per-layer metrics have no bound and get "-".
func verdict(a, b record) string {
	switch {
	case a.Exact:
		if a.Value == b.Value {
			return "same"
		}
		return "changed"
	case a.Bound == nil:
		return "-"
	}
	worse := func(x, y float64) bool { // y worse than x
		if a.Better == "higher" {
			return y < x
		}
		return y > x
	}
	if allBetter(a.Values, b.Values, worse) {
		return "ok"
	}
	spread := math.Max(summary{median: a.Value, q1: a.Q1, q3: a.Q3}.spread(), summary{median: b.Value, q1: b.Q1, q3: b.Q3}.spread())
	if a.Host && spread > *a.Bound {
		return "unresolved"
	}
	if worse(a.Value, b.Value) && math.Abs(b.Value-a.Value) > *a.Bound*math.Abs(a.Value) {
		return "worse"
	}
	return "ok"
}

// allBetter reports whether every sample of b beats every sample of a.
func allBetter(a, b []float64, worse func(x, y float64) bool) bool {
	if len(a) == 0 || len(b) == 0 {
		return false
	}
	for _, x := range a {
		for _, y := range b {
			if !worse(y, x) {
				return false
			}
		}
	}
	return true
}

// compareFiles prints per-workload, per-metric deltas of B against A
// and returns 1 when any metric is worse or any exact metric changed.
func compareFiles(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: benchmark -compare A.json B.json")
		return 2
	}
	aRecs, err := readRecords(args[0])
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	bs, err := readRecords(args[1])
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	as := map[[2]string]record{}
	for _, a := range aRecs {
		as[[2]string{a.Workload, a.Metric}] = a
	}
	tw := tabwriter.NewWriter(stdout, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintf(tw, "workload\tmetric\tA\tB\tdelta\tbound\tverdict\t\n")
	code := 0
	for _, b := range bs {
		a, ok := as[[2]string{b.Workload, b.Metric}]
		if !ok {
			continue
		}
		v := verdict(a, b)
		if v == "worse" || v == "changed" {
			code = 1
		}
		bound := "-"
		if a.Bound != nil {
			bound = fmt.Sprintf("%.0f%%", 100**a.Bound)
		}
		delta := "-"
		if a.Value != 0 {
			delta = fmt.Sprintf("%+.1f%%", 100*(b.Value-a.Value)/math.Abs(a.Value))
		}
		fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%s\t%s\t%s\t\n", b.Workload, b.Metric, a.Value, b.Value, delta, bound, v)
	}
	tw.Flush()
	return code
}
