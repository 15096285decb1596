// Command benchjson converts `go test -bench` output on stdin into a JSON
// benchmark-trajectory point on stdout. CI runs it after the scheduler
// benchmarks and archives the result as BENCH_<date>.json, so per-op cost
// regressions show up as a series rather than a single lost log line.
//
// Usage:
//
//	go test -bench BenchmarkVisibleOpThreads -run '^$' . | benchjson -date 2026-08-06 -commit abc123
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"strconv"
	"strings"
)

// Result is one benchmark line. BytesPerOp/AllocsPerOp are present only
// when the run used -benchmem; they are pointers so that a genuine
// measured zero (the detector release path's target) survives JSON
// round-tripping distinct from "not measured".
type Result struct {
	Name        string   `json:"name"`
	Iters       int64    `json:"iterations"`
	NsPerOp     float64  `json:"ns_per_op"`
	BytesPerOp  *float64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp *float64 `json:"allocs_per_op,omitempty"`
}

// Point is one trajectory entry: every benchmark of one run.
type Point struct {
	Date    string   `json:"date,omitempty"`
	Commit  string   `json:"commit,omitempty"`
	Results []Result `json:"results"`
}

// benchLine matches a result line up to its first column, which go test
// always prints as ns/op. The columns after it are value-unit pairs:
// MB/s from b.SetBytes, one per b.ReportMetric, and B/op and allocs/op
// from -benchmem.
var benchLine = regexp.MustCompile(`^(Benchmark\S+)\s+(\d+)\s+(\S+) ns/op(.*)$`)

func run(in io.Reader, out io.Writer, date, commit string) error {
	p := Point{Date: date, Commit: commit}
	sc := bufio.NewScanner(in)
	for sc.Scan() {
		r, ok, err := parseLine(sc.Text())
		if err != nil {
			return err
		}
		if ok {
			p.Results = append(p.Results, r)
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if len(p.Results) == 0 {
		return fmt.Errorf("benchjson: no benchmark result lines on stdin")
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(p)
}

// parseLine reads one benchmark result line; ok is false for any other
// line.
func parseLine(line string) (r Result, ok bool, err error) {
	m := benchLine.FindStringSubmatch(line)
	if m == nil {
		return Result{}, false, nil
	}
	r.Name = m[1]
	if r.Iters, err = strconv.ParseInt(m[2], 10, 64); err != nil {
		return Result{}, false, fmt.Errorf("benchjson: bad iteration count in %q: %v", line, err)
	}
	if r.NsPerOp, err = strconv.ParseFloat(m[3], 64); err != nil {
		return Result{}, false, fmt.Errorf("benchjson: bad ns/op in %q: %v", line, err)
	}
	cols := strings.Fields(m[4])
	if len(cols)%2 != 0 {
		return Result{}, false, fmt.Errorf("benchjson: unpaired column in %q", line)
	}
	for i := 0; i < len(cols); i += 2 {
		v, err := strconv.ParseFloat(cols[i], 64)
		if err != nil {
			return Result{}, false, fmt.Errorf("benchjson: bad %s in %q: %v", cols[i+1], line, err)
		}
		switch cols[i+1] {
		case "B/op":
			r.BytesPerOp = &v
		case "allocs/op":
			r.AllocsPerOp = &v
		}
	}
	return r, true, nil
}

func main() {
	date := flag.String("date", "", "ISO date stamp for the trajectory point")
	commit := flag.String("commit", "", "commit hash the benchmarks ran at")
	flag.Parse()
	if err := run(os.Stdin, os.Stdout, *date, *commit); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
