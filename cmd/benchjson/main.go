// Command benchjson tees `go test -bench` output to stdout while parsing
// the benchmark result lines into a small JSON document, so `make bench`
// leaves machine-readable artifacts (BENCH_stage1.json, BENCH_repair.json)
// next to the human-readable log. A benchmark repeated with `-count N` is
// recorded once, as the median of its runs with their range. Standard
// library only.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"slices"
	"strconv"
	"strings"
)

// result is one parsed benchmark line, or the aggregate of a benchmark
// that `go test -count N` ran N times: then NsPerOp and every metric are
// the median over the runs, and Runs, NsMin and NsMax record the spread.
type result struct {
	Name    string             `json:"name"`
	Iters   int64              `json:"iters"`
	NsPerOp float64            `json:"ns_per_op"`
	Runs    int                `json:"runs,omitempty"`
	NsMin   float64            `json:"ns_per_op_min,omitempty"`
	NsMax   float64            `json:"ns_per_op_max,omitempty"`
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// aggregate folds repeated runs of one benchmark into a single result,
// keeping first-appearance order.
func aggregate(rs []result) []result {
	var order []string
	runs := make(map[string][]result)
	for _, r := range rs {
		if _, ok := runs[r.Name]; !ok {
			order = append(order, r.Name)
		}
		runs[r.Name] = append(runs[r.Name], r)
	}
	out := make([]result, 0, len(order))
	for _, name := range order {
		group := runs[name]
		if len(group) == 1 {
			out = append(out, group[0])
			continue
		}
		agg := result{Name: name, Iters: group[0].Iters, Runs: len(group)}
		ns := make([]float64, len(group))
		metrics := make(map[string][]float64)
		for i, r := range group {
			ns[i] = r.NsPerOp
			for k, v := range r.Metrics {
				metrics[k] = append(metrics[k], v)
			}
		}
		agg.NsPerOp, agg.NsMin, agg.NsMax = median(ns), slices.Min(ns), slices.Max(ns)
		for k, vs := range metrics {
			if agg.Metrics == nil {
				agg.Metrics = make(map[string]float64)
			}
			agg.Metrics[k] = median(vs)
		}
		out = append(out, agg)
	}
	return out
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count); xs is sorted in place.
func median(xs []float64) float64 {
	slices.Sort(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

type doc struct {
	Goos    string   `json:"goos,omitempty"`
	Goarch  string   `json:"goarch,omitempty"`
	CPU     string   `json:"cpu,omitempty"`
	Pkg     string   `json:"pkg,omitempty"`
	Results []result `json:"results"`
}

var benchLine = regexp.MustCompile(`^(Benchmark\S+)\s+(\d+)\s+([\d.]+) ns/op(.*)$`)

// deriveSpeedups annotates paired variants (-cpu suffixes stripped): any
// warm variant of a benchmark X ("XWarm", "XWarmOneDirty", …) gains
// speedup_vs_cold against X, so the cold/warm ratio is recorded in the
// artifact itself (e.g. BenchmarkStage1Templatization vs its cache-hit
// and incremental-one-target-dirty variants).
func deriveSpeedups(d *doc) {
	byBase := make(map[string]float64)
	for _, r := range d.Results {
		base, _, _ := strings.Cut(r.Name, "-")
		byBase[base] = r.NsPerOp
	}
	for i := range d.Results {
		r := &d.Results[i]
		if r.NsPerOp == 0 {
			continue
		}
		base, _, _ := strings.Cut(r.Name, "-")
		if at := strings.LastIndex(base, "Warm"); at > 0 {
			if cold, ok := byBase[base[:at]]; ok {
				if r.Metrics == nil {
					r.Metrics = make(map[string]float64)
				}
				r.Metrics["speedup_vs_cold"] = cold / r.NsPerOp
			}
		}
	}
}

func main() {
	out := flag.String("out", "", "write parsed results to this JSON file")
	flag.Parse()

	var d doc
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		fmt.Println(line)
		switch {
		case strings.HasPrefix(line, "goos: "):
			d.Goos = strings.TrimPrefix(line, "goos: ")
		case strings.HasPrefix(line, "goarch: "):
			d.Goarch = strings.TrimPrefix(line, "goarch: ")
		case strings.HasPrefix(line, "cpu: "):
			d.CPU = strings.TrimPrefix(line, "cpu: ")
		case strings.HasPrefix(line, "pkg: "):
			d.Pkg = strings.TrimPrefix(line, "pkg: ")
		}
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		iters, _ := strconv.ParseInt(m[2], 10, 64)
		ns, _ := strconv.ParseFloat(m[3], 64)
		r := result{Name: m[1], Iters: iters, NsPerOp: ns}
		// The tail alternates "value unit" pairs (custom b.ReportMetric
		// metrics plus -benchmem's B/op and allocs/op).
		fields := strings.Fields(m[4])
		for i := 0; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			if r.Metrics == nil {
				r.Metrics = make(map[string]float64)
			}
			r.Metrics[fields[i+1]] = v
		}
		d.Results = append(d.Results, r)
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson: read:", err)
		os.Exit(1)
	}
	d.Results = aggregate(d.Results)
	deriveSpeedups(&d)
	if *out == "" {
		return
	}
	if len(d.Results) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark lines parsed; not writing", *out)
		os.Exit(1)
	}
	buf, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson: marshal:", err)
		os.Exit(1)
	}
	if err := os.WriteFile(*out, append(buf, '\n'), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson: write:", err)
		os.Exit(1)
	}
}
