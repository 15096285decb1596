// Command experiments regenerates every table EXPERIMENTS.md shows: the
// paper's §5 evaluation (Tables 1–5, the §5.2 demo sizes and the two §5.4
// game experiments) and the strategy comparison. Each is a registry entry
// that measures its rows under each mode. One run writes every selected
// entry's cells to one JSON artifact and prints the markdown tables
// rendered from it, which EXPERIMENTS.md embeds.
//
// Usage:
//
//	experiments [-table all|name,...] [-runs N] [-seed S] [-o file.json] [-trace file] [-metrics]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"strings"
	"time"

	"repro/internal/apps/modes"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/stats"
)

// Artifact is one run of cmd/experiments: the host it ran on, the workload
// sizes and every cell it measured.
type Artifact struct {
	Date       string         `json:"date"`
	Commit     string         `json:"commit"`
	Go         string         `json:"go"`
	NProc      int            `json:"nproc"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	Seed       uint64         `json:"seed"`
	Sizes      map[string]int `json:"sizes"`
	Cells      []Cell         `json:"cells"`
}

// Cell summarises the n observations of one metric for one row of a table
// under one mode. A rate's observations are 0 or 100 per run, so its Mean
// is the percentage of runs.
type Cell struct {
	Table  string  `json:"table"`
	Row    string  `json:"row"`
	Mode   string  `json:"mode"`
	Metric string  `json:"metric"`
	Median float64 `json:"median"`
	IQR    float64 `json:"iqr"`
	Mean   float64 `json:"mean"`
	N      int     `json:"n"`
}

func main() {
	var names []string
	for _, e := range registry {
		names = append(names, e.name)
	}
	tables := flag.String("table", "all", "comma-separated tables to run ("+strings.Join(names, ", ")+"), or all")
	runs := flag.Int("runs", 0, "runs per cell; 0 runs each table's own count")
	seed := flag.Uint64("seed", 1, "base seed: run r of every cell uses seed<<20 + r")
	date := time.Now().UTC().Format("2006-01-02")
	out := flag.String("o", "BENCH_"+date+"_experiments.json", "artifact path")
	tracePath := flag.String("trace", "", "write a Chrome trace_event JSON of the runs' tail to this path")
	metricsFlag := flag.Bool("metrics", false, "print the observability metrics table at exit")
	flag.Parse()

	selected, err := selectEntries(*tables)
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(2)
	}
	sess := obs.NewSession(*tracePath, *metricsFlag)
	a := &Artifact{
		Date:   date,
		Commit: commit(),
		Go:     runtime.Version() + " " + runtime.GOOS + "/" + runtime.GOARCH,
		NProc:  runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Seed: *seed, Sizes: sizes,
	}
	for _, e := range selected {
		m := &meter{table: e.name, runs: e.runs, base: *seed, sess: sess, obs: map[[3]string]*stats.Sample{}}
		if *runs > 0 {
			m.runs = *runs
		}
		start := time.Now()
		if err := e.run(m); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %s: %v\n", e.name, err)
			os.Exit(1)
		}
		a.Cells = append(a.Cells, m.cells()...)
		fmt.Fprintf(os.Stderr, "%s: %d runs per cell in %v\n", e.name, m.runs, time.Since(start).Round(time.Millisecond))
	}
	b, err := json.MarshalIndent(a, "", " ")
	if err == nil {
		err = os.WriteFile(*out, append(b, '\n'), 0o644)
	}
	if err == nil {
		fmt.Print(markdown(a))
		err = sess.Finish(os.Stdout)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

// selectEntries returns the registry entries a -table list names.
func selectEntries(list string) ([]entry, error) {
	if list == "all" {
		return registry, nil
	}
	var out []entry
	for _, name := range strings.Split(list, ",") {
		i := slices.IndexFunc(registry, func(e entry) bool { return e.name == strings.TrimSpace(name) })
		if i < 0 {
			return nil, fmt.Errorf("unknown table %q", name)
		}
		out = append(out, registry[i])
	}
	return out, nil
}

// commit names the source tree measured, "-dirty" when it has uncommitted
// changes.
func commit() string {
	b, err := exec.Command("git", "describe", "--always", "--dirty").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(b))
}

// meter collects one entry's observations, cell by cell.
type meter struct {
	table string
	runs  int
	base  uint64
	sess  *obs.Session
	keys  [][3]string // row, mode and metric, in the first-seen order the artifact keeps
	obs   map[[3]string]*stats.Sample
}

// seed is the seed of run r of a cell.
func (m *meter) seed(r int) uint64 { return m.base<<20 + uint64(r) }

func (m *meter) add(row, mode, metric string, v float64) {
	k := [3]string{row, mode, metric}
	if m.obs[k] == nil {
		m.obs[k] = &stats.Sample{}
		m.keys = append(m.keys, k)
	}
	m.obs[k].Add(v)
}

// opts is the named mode's configuration for run r, attached to the
// session's tracer and metrics. The registry names only modes that exist.
func (m *meter) opts(mode string, r int, reportRaces bool) core.Options {
	o, err := modes.Options(mode, m.seed(r), reportRaces)
	if err != nil {
		panic(err)
	}
	o.Trace, o.Metrics = m.sess.Tracer, m.sess.Metrics
	return o
}

// each runs body for every row and mode, run 0 of every cell first, so a
// drift in the host's speed spreads over all cells instead of biasing the
// cells measured last. It stops at the first error: a failed run fails its
// table.
func (m *meter) each(rows, modes []string, body func(row, mode string, r int) error) error {
	for r := 0; r < m.runs; r++ {
		for _, row := range rows {
			for _, mode := range modes {
				if err := body(row, mode, r); err != nil {
					return fmt.Errorf("%s/%s run %d: %w", row, mode, r, err)
				}
			}
		}
	}
	return nil
}

func (m *meter) cells() []Cell {
	out := make([]Cell, 0, len(m.keys))
	for _, k := range m.keys {
		s := m.obs[k]
		out = append(out, Cell{Table: m.table, Row: k[0], Mode: k[1], Metric: k[2],
			Median: s.Median(), IQR: s.Quantile(0.75) - s.Quantile(0.25), Mean: s.Mean(), N: s.N()})
	}
	return out
}

// pct is a rate observation: 100 when the event happened in a run.
func pct(happened bool) (v float64) {
	if happened {
		v = 100
	}
	return v
}
